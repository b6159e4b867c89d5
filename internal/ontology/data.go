package ontology

import "nl2cm/internal/rdf"

// addGeoRelations registers the GeoOntology's relation lemmas.
func addGeoRelations(o *Ontology) {
	o.AddRelation(PredNear, "near", "nearby", "close to", "around")
	o.AddRelation(PredLocatedIn, "in", "located in", "within", "inside", "at")
	o.AddRelation(PredHasFeature, "has", "have", "with", "offer")
	o.AddRelation(PredServes, "serve", "serves")
	o.AddRelation(PredInstanceOf, "instanceof", "instance of", "type of", "kind of")
}

// addEncyclopedicRelations registers the EncyclopedicOntology's relation
// lemmas.
func addEncyclopedicRelations(o *Ontology) {
	o.AddRelation(PredRichIn, "rich in", "high in", "full of")
	o.AddRelation(PredContains, "contain", "contains", "made of")
	o.AddRelation(PredMadeBy, "made by", "by", "from")
	o.AddRelation(PredGoodFor, "good for")
	o.AddRelation(PredInstanceOf, "instanceof")
}

// NewGeoOntology builds the LinkedGeoData substitute: places, cities and
// hotels around the paper's running example (Buffalo, NY), the demo's Las
// Vegas questions, and deliberately ambiguous "Buffalo" entries that
// drive the disambiguation dialogue of Figure 4/FREyA.
func NewGeoOntology() *Ontology {
	o := New("GeoOntology")

	// Classes.
	place := o.AddClass("Place", "place", rdf.Term{})
	city := o.AddClass("City", "city", place)
	park := o.AddClass("Park", "park", place)
	zoo := o.AddClass("Zoo", "zoo", place)
	museum := o.AddClass("Museum", "museum", place)
	hotel := o.AddClass("Hotel", "hotel", place)
	restaurant := o.AddClass("Restaurant", "restaurant", place)
	beach := o.AddClass("Beach", "beach", place)
	season := o.AddClass("Season", "season", rdf.Term{})
	ride := o.AddClass("Ride", "ride", rdf.Term{})
	show := o.AddClass("Show", "show", rdf.Term{})
	o.Alias(place, "places")
	o.Alias(place, "sight")
	o.Alias(place, "sights")
	o.Alias(place, "attraction")
	o.Alias(place, "attractions")
	o.Alias(ride, "thrill ride")

	addGeoRelations(o)

	// Ambiguous Buffalos (the paper's Figure-4 example names NY and IL).
	buffaloNY := o.AddEntity("Buffalo,_NY", "Buffalo", "city in New York, USA", city)
	buffaloIL := o.AddEntity("Buffalo,_IL", "Buffalo", "village in Illinois, USA", city)
	buffaloWY := o.AddEntity("Buffalo,_WY", "Buffalo", "city in Wyoming, USA", city)
	vegas := o.AddEntity("Las_Vegas", "Las Vegas", "city in Nevada, USA", city)
	o.Alias(vegas, "Vegas")
	nyc := o.AddEntity("New_York_City", "New York City", "city in New York, USA", city)

	// The running example's hotel: its canonical local name matches the
	// paper's Figure 1 entity Forest_Hotel,_Buffalo,_NY.
	forest := o.AddEntity("Forest_Hotel,_Buffalo,_NY", "Forest Hotel",
		"hotel in Buffalo, NY, USA", hotel)
	o.Alias(forest, "Forest Hotel, Buffalo")
	o.Alias(forest, "Forest Hotel, Buffalo, NY")
	o.Add(forest, PredLocatedIn, buffaloNY)
	o.Add(buffaloNY, PredHasFeature, forest)

	// Buffalo, NY sights.
	addPlace := func(local, label, desc string, class, in rdf.Term, nearTo ...rdf.Term) rdf.Term {
		e := o.AddEntity(local, label, desc, class)
		if in.Value() != "" {
			o.Add(e, PredLocatedIn, in)
			// A city "has" the attractions located in it — the inverse
			// feature link counting queries group over ("Which city has
			// the most attractions?").
			o.Add(in, PredHasFeature, e)
		}
		for _, n := range nearTo {
			o.Add(e, PredNear, n)
			o.Add(n, PredNear, e)
		}
		return e
	}
	addPlace("Delaware_Park", "Delaware Park", "park in Buffalo, NY", park, buffaloNY, forest)
	addPlace("Buffalo_Zoo", "Buffalo Zoo", "zoo in Buffalo, NY", zoo, buffaloNY, forest)
	addPlace("Albright-Knox_Gallery", "Albright-Knox Gallery", "art museum in Buffalo, NY", museum, buffaloNY, forest)
	addPlace("Canalside", "Canalside", "waterfront district in Buffalo, NY", place, buffaloNY, forest)
	niagara := addPlace("Niagara_Falls", "Niagara Falls", "waterfalls near Buffalo, NY", place, rdf.Term{})
	o.Add(niagara, PredNear, buffaloNY)
	botanical := addPlace("Botanical_Gardens", "Botanical Gardens", "gardens in Buffalo, NY", park, buffaloNY)
	_ = botanical
	addPlace("Anchor_Bar", "Anchor Bar", "restaurant in Buffalo, NY", restaurant, buffaloNY, forest)
	addPlace("Woodlawn_Beach", "Woodlawn Beach", "beach near Buffalo, NY", beach, buffaloNY)

	// Las Vegas hotels and their thrill rides (demo question: "Which
	// hotel in Vegas has the best thrill ride?").
	strat := addPlace("Stratosphere", "Stratosphere", "hotel in Las Vegas, NV", hotel, vegas)
	nyny := addPlace("New_York-New_York", "New York-New York", "hotel in Las Vegas, NV", hotel, vegas)
	circus := addPlace("Circus_Circus", "Circus Circus", "hotel in Las Vegas, NV", hotel, vegas)
	bigShot := o.AddEntity("Big_Shot", "Big Shot", "thrill ride at the Stratosphere", ride)
	bigApple := o.AddEntity("Big_Apple_Coaster", "Big Apple Coaster", "roller coaster at New York-New York", ride)
	adventuredome := o.AddEntity("Adventuredome", "Adventuredome", "indoor theme park at Circus Circus", ride)
	o.Add(strat, PredHasFeature, bigShot)
	o.Add(nyny, PredHasFeature, bigApple)
	o.Add(circus, PredHasFeature, adventuredome)
	addPlace("Bellagio", "Bellagio", "hotel in Las Vegas, NV", hotel, vegas)
	fountains := o.AddEntity("Fountains_of_Bellagio", "Fountains of Bellagio", "fountain show at the Bellagio", show)
	o.Add(E("Bellagio"), PredHasFeature, fountains)

	// Seasons (the running example's "Fall").
	for _, s := range []struct{ local, label string }{
		{"Fall", "fall"}, {"Winter", "winter"}, {"Spring", "spring"}, {"Summer", "summer"},
	} {
		o.AddEntity(s.local, s.label, "season of the year", season)
	}
	o.Alias(E("Fall"), "autumn")

	// A few extra cities for lookup coverage.
	addPlace("Central_Park", "Central Park", "park in New York City", park, nyc)
	_ = buffaloIL
	_ = buffaloWY
	o.MaterializeInference()
	return o
}

// NewEncyclopedicOntology builds the DBPedia substitute: food and
// nutrition facts (the dietician example), consumer products (the
// shopping demo questions) and health-related entities.
func NewEncyclopedicOntology() *Ontology {
	o := New("EncyclopedicOntology")

	// Classes.
	food := o.AddClass("Food", "food", rdf.Term{})
	dish := o.AddClass("Dish", "dish", food)
	beverage := o.AddClass("Beverage", "beverage", food)
	nutrient := o.AddClass("Nutrient", "nutrient", rdf.Term{})
	product := o.AddClass("Product", "product", rdf.Term{})
	camera := o.AddClass("Camera", "camera", product)
	phone := o.AddClass("Phone", "phone", product)
	brand := o.AddClass("Brand", "brand", rdf.Term{})
	container := o.AddClass("Container", "container", rdf.Term{})
	person := o.AddClass("Person", "person", rdf.Term{})
	o.Alias(dish, "dishes")
	o.Alias(camera, "digital camera")
	o.Alias(camera, "cameras")
	o.Alias(food, "foods")
	o.Alias(person, "people")

	addEncyclopedicRelations(o)

	// Nutrients.
	fiber := o.AddEntity("Fiber", "fiber", "dietary fiber", nutrient)
	protein := o.AddEntity("Protein", "protein", "protein", nutrient)
	calcium := o.AddEntity("Calcium", "calcium", "calcium", nutrient)
	sugar := o.AddEntity("Sugar", "sugar", "sugar", nutrient)

	// Dishes with nutrition facts (the dietician scenario needs
	// fiber-rich dishes in the general KB).
	addDish := func(local, label string, rich ...rdf.Term) rdf.Term {
		e := o.AddEntity(local, label, "food dish", dish)
		for _, n := range rich {
			o.Add(e, PredRichIn, n)
		}
		return e
	}
	addDish("Lentil_Soup", "lentil soup", fiber, protein)
	addDish("Oatmeal", "oatmeal", fiber)
	addDish("Bean_Chili", "bean chili", fiber, protein)
	addDish("Whole_Grain_Bread", "whole grain bread", fiber)
	addDish("Quinoa_Salad", "quinoa salad", fiber, protein)
	addDish("Ice_Cream", "ice cream", sugar, calcium)
	addDish("Grilled_Chicken", "grilled chicken", protein)
	addDish("Cheese_Omelette", "cheese omelette", protein, calcium)

	// Beverages.
	chocMilk := o.AddEntity("Chocolate_Milk", "chocolate milk", "milk beverage", beverage)
	o.Add(chocMilk, PredRichIn, calcium)
	o.Add(chocMilk, PredRichIn, sugar)
	coffee := o.AddEntity("Coffee", "coffee", "brewed beverage", beverage)
	o.AddEntity("Green_Tea", "green tea", "brewed beverage", beverage)
	_ = coffee

	// Containers (the rephrased coffee question needs them).
	o.AddEntity("Airtight_Jar", "airtight jar", "sealed storage container", container)
	o.AddEntity("Ceramic_Canister", "ceramic canister", "opaque storage container", container)
	o.AddEntity("Freezer_Bag", "freezer bag", "plastic storage bag", container)

	// Cameras and brands (the shopping scenario).
	nikon := o.AddEntity("Nikon", "Nikon", "camera maker", brand)
	canon := o.AddEntity("Canon", "Canon", "camera maker", brand)
	sony := o.AddEntity("Sony", "Sony", "electronics maker", brand)
	addCam := func(local, label string, maker rdf.Term, price string) {
		e := o.AddEntity(local, label, "digital camera model", camera)
		o.Add(e, PredMadeBy, maker)
		o.Add(e, PredPriceRange, rdf.NewLiteral(price))
	}
	addCam("Nikon_D3500", "Nikon D3500", nikon, "mid")
	addCam("Canon_EOS_R50", "Canon EOS R50", canon, "high")
	addCam("Sony_ZV-1", "Sony ZV-1", sony, "mid")
	addCam("Canon_PowerShot", "Canon PowerShot", canon, "low")
	o.AddEntity("iPhone", "iPhone", "smartphone", phone)

	// People groups (the "good for kids" question).
	kids := o.AddEntity("Kids", "kids", "children", person)
	o.Alias(kids, "children")
	o.AddEntity("Adults", "adults", "grown-ups", person)

	o.MaterializeInference()
	return o
}

// NewDemoOntology merges the geo and encyclopedic ontologies, matching
// the demo configuration ("The system will use the publicly available
// general data ontologies LinkedGeoData and DBPedia").
func NewDemoOntology() *Ontology {
	return Merge("DemoOntology", NewGeoOntology(), NewEncyclopedicOntology())
}
