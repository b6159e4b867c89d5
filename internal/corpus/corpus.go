// Package corpus is the evaluation substrate standing in for the Yahoo!
// Answers question set used in the paper's demonstration: forum-style NL
// questions across the demo's domains (travel, shopping, health, food),
// each with gold annotations — whether verification should accept it,
// and which individual expressions a perfect IX detector would find.
//
// The corpus drives experiment E7 (translation quality without user
// interaction, §4.1), E8 (the demo's forum-question stage), E10 (the
// unsupported-question stage) and the A1/A2 ablations.
package corpus

// GoldIX is one expected individual expression: the lemma of its anchor
// token plus the individuality types it exhibits.
type GoldIX struct {
	// AnchorLemma is the lemma of the IX's anchor (verb or opinion word).
	AnchorLemma string
	// Types are the expected individuality types (lexical, participant,
	// syntactic).
	Types []string
}

// Question is one corpus entry.
type Question struct {
	// ID is a stable identifier ("travel-01").
	ID string
	// Domain groups questions as in the demo ("travel", "shopping",
	// "health", "food", "general").
	Domain string
	// Text is the NL question.
	Text string
	// Supported is the gold verification verdict.
	Supported bool
	// UnsupportedCategory is the expected rejection category for
	// unsupported questions ("descriptive", "causal", "aggregate",
	// "multiple").
	UnsupportedCategory string
	// Gold lists the expected IXs; empty for purely general questions.
	Gold []GoldIX
}

// HasGoldAnchor reports whether the gold annotation contains the lemma.
func (q Question) HasGoldAnchor(lemma string) bool {
	for _, g := range q.Gold {
		if g.AnchorLemma == lemma {
			return true
		}
	}
	return false
}

func ix(lemma string, types ...string) GoldIX {
	return GoldIX{AnchorLemma: lemma, Types: types}
}

// questions is the embedded corpus.
var questions = []Question{
	// ---- Travel ----
	{ID: "travel-01", Domain: "travel", Supported: true,
		Text: "What are the most interesting places near Forest Hotel, Buffalo, we should visit in the fall?",
		Gold: []GoldIX{ix("interesting", "lexical"), ix("visit", "participant", "syntactic")}},
	{ID: "travel-02", Domain: "travel", Supported: true,
		Text: "Which hotel in Vegas has the best thrill ride?",
		Gold: []GoldIX{ix("good", "lexical")}},
	{ID: "travel-03", Domain: "travel", Supported: true,
		Text: "Where do you visit in Buffalo?",
		Gold: []GoldIX{ix("visit", "participant")}},
	{ID: "travel-04", Domain: "travel", Supported: true,
		Text: "What are the best places to visit in Buffalo with kids?",
		Gold: []GoldIX{ix("good", "lexical")}},
	{ID: "travel-05", Domain: "travel", Supported: true,
		Text: "Which museums should we visit in the winter?",
		Gold: []GoldIX{ix("visit", "participant", "syntactic")}},
	{ID: "travel-06", Domain: "travel", Supported: true,
		Text: "Obama should visit Buffalo.",
		Gold: []GoldIX{ix("visit", "syntactic")}},
	{ID: "travel-07", Domain: "travel", Supported: true,
		Text: "Where do locals eat in Buffalo?",
		Gold: []GoldIX{ix("eat", "participant")}},
	{ID: "travel-08", Domain: "travel", Supported: true,
		Text: "Which parks are in Buffalo?",
		Gold: nil},
	{ID: "travel-09", Domain: "travel", Supported: true,
		Text: "What romantic restaurants near Canalside do you recommend?",
		Gold: []GoldIX{ix("romantic", "lexical"), ix("recommend", "lexical", "participant")}},
	{ID: "travel-10", Domain: "travel", Supported: true,
		Text: "Which beach near Buffalo is quiet in the summer?",
		Gold: []GoldIX{ix("quiet", "lexical")}},
	{ID: "travel-11", Domain: "travel", Supported: true,
		Text: "Should I stay downtown in Buffalo?",
		Gold: []GoldIX{ix("stay", "participant", "syntactic")}},
	{ID: "travel-12", Domain: "travel", Supported: true,
		Text: "Which tours do tourists take from Buffalo to Niagara Falls?",
		Gold: []GoldIX{ix("take", "participant")}},
	{ID: "travel-13", Domain: "travel", Supported: true,
		Text: "What shows should we watch in Vegas?",
		Gold: []GoldIX{ix("watch", "participant", "syntactic")}},
	{ID: "travel-14", Domain: "travel", Supported: false, UnsupportedCategory: "descriptive",
		Text: "How do I get to the airport?"},

	// ---- Shopping ----
	{ID: "shopping-01", Domain: "shopping", Supported: true,
		Text: "What type of digital camera should I buy?",
		Gold: []GoldIX{ix("buy", "participant", "syntactic")}},
	{ID: "shopping-02", Domain: "shopping", Supported: true,
		Text: "Which camera do you recommend?",
		Gold: []GoldIX{ix("recommend", "lexical", "participant")}},
	{ID: "shopping-03", Domain: "shopping", Supported: true,
		Text: "Is the Nikon D3500 reliable?",
		Gold: []GoldIX{ix("reliable", "lexical")}},
	{ID: "shopping-04", Domain: "shopping", Supported: true,
		Text: "Which phone has the best battery?",
		Gold: []GoldIX{ix("good", "lexical")}},
	{ID: "shopping-05", Domain: "shopping", Supported: true,
		Text: "Where do people buy cheap laptops?",
		Gold: []GoldIX{ix("buy", "participant"), ix("cheap", "lexical")}},
	{ID: "shopping-06", Domain: "shopping", Supported: true,
		Text: "Which brand of laptop should I choose?",
		Gold: []GoldIX{ix("choose", "participant", "syntactic")}},
	{ID: "shopping-07", Domain: "shopping", Supported: true,
		Text: "What gifts should I bring from Buffalo?",
		Gold: []GoldIX{ix("bring", "participant", "syntactic")}},
	{ID: "shopping-08", Domain: "shopping", Supported: true,
		// Counting question: translates to a global COUNT aggregate.
		Text: "How many cameras does Canon sell?",
		Gold: nil},
	{ID: "shopping-09", Domain: "shopping", Supported: false, UnsupportedCategory: "aggregate",
		// Mass quantity over an unstated measure: still rejected.
		Text: "How much does a good camera cost?"},

	// ---- Health ----
	{ID: "health-01", Domain: "health", Supported: true,
		Text: "Is chocolate milk good for kids?",
		Gold: []GoldIX{ix("good", "lexical")}},
	{ID: "health-02", Domain: "health", Supported: true,
		Text: "How often do you exercise in the winter?",
		Gold: []GoldIX{ix("exercise", "participant")}},
	{ID: "health-03", Domain: "health", Supported: true,
		Text: "Should I drink coffee in the morning?",
		Gold: []GoldIX{ix("drink", "participant", "syntactic")}},
	{ID: "health-04", Domain: "health", Supported: true,
		Text: "Which snacks are healthy for children?",
		Gold: []GoldIX{ix("healthy", "lexical")}},
	{ID: "health-05", Domain: "health", Supported: false, UnsupportedCategory: "causal",
		Text: "Why is sugar bad for kids?"},
	{ID: "health-06", Domain: "health", Supported: false, UnsupportedCategory: "descriptive",
		Text: "How should I store coffee?"},
	{ID: "health-07", Domain: "health", Supported: true,
		Text: "At what container should I store coffee?",
		Gold: []GoldIX{ix("store", "participant", "syntactic")}},
	{ID: "health-08", Domain: "health", Supported: true,
		Text: "Is green tea better than coffee?",
		Gold: []GoldIX{ix("good", "lexical")}},

	// ---- Food ----
	{ID: "food-01", Domain: "food", Supported: true,
		Text: "Which dishes rich in fiber do people cook in the winter?",
		Gold: []GoldIX{ix("cook", "participant")}},
	{ID: "food-02", Domain: "food", Supported: true,
		Text: "What are the most delicious dishes in Buffalo?",
		Gold: []GoldIX{ix("delicious", "lexical")}},
	{ID: "food-03", Domain: "food", Supported: true,
		Text: "What do you eat for breakfast?",
		Gold: []GoldIX{ix("eat", "participant")}},
	{ID: "food-04", Domain: "food", Supported: true,
		Text: "Which foods do kids like?",
		Gold: []GoldIX{ix("like", "lexical", "participant")}},
	{ID: "food-05", Domain: "food", Supported: true,
		Text: "Should we order the bean chili at Anchor Bar?",
		Gold: []GoldIX{ix("order", "participant", "syntactic")}},
	{ID: "food-06", Domain: "food", Supported: true,
		Text: "Is oatmeal a good breakfast for adults?",
		Gold: []GoldIX{ix("good", "lexical")}},
	{ID: "food-07", Domain: "food", Supported: true,
		Text: "Where do locals drink coffee in Buffalo?",
		Gold: []GoldIX{ix("drink", "participant")}},
	{ID: "food-08", Domain: "food", Supported: true,
		Text: "What desserts do people enjoy in the summer?",
		Gold: []GoldIX{ix("enjoy", "lexical", "participant")}},
	{ID: "food-09", Domain: "food", Supported: false, UnsupportedCategory: "causal",
		Text: "Why do people like chocolate?"},
	{ID: "food-10", Domain: "food", Supported: false, UnsupportedCategory: "descriptive",
		Text: "How to make good coffee?"},

	// ---- General ----
	{ID: "general-01", Domain: "general", Supported: true,
		Text: "Who serves the best pizza in Buffalo?",
		Gold: []GoldIX{ix("good", "lexical")}},
	{ID: "general-02", Domain: "general", Supported: false, UnsupportedCategory: "descriptive",
		Text: "Explain the rules of chess."},
	{ID: "general-03", Domain: "general", Supported: false, UnsupportedCategory: "causal",
		Text: "For what purpose do people travel?"},
	{ID: "general-04", Domain: "general", Supported: false, UnsupportedCategory: "causal",
		Text: "What is the reason people like Buffalo?"},
	{ID: "general-05", Domain: "general", Supported: false, UnsupportedCategory: "multiple",
		Text: "Where should we eat? And what should we order?"},
	{ID: "general-06", Domain: "general", Supported: true,
		Text: "We visit parks in the fall.",
		Gold: []GoldIX{ix("visit", "participant")}},

	// ---- Adversarial entries ----
	// Questions chosen to stress the detector: sentiment-lexicon words
	// in objective use (false-positive bait) and individual meanings
	// carried by constructions outside the pattern set (false-negative
	// bait). They keep the E7 quality measurement honest.
	{ID: "hard-01", Domain: "travel", Supported: true,
		// "free" is in the opinion lexicon but here it is a recorded
		// fact, not an opinion.
		Text: "Which restaurants in Buffalo have free parking?",
		Gold: nil},
	{ID: "hard-02", Domain: "travel", Supported: true,
		// "fun" is usually tagged as a noun, which the adjective
		// patterns miss.
		Text: "What attractions near Forest Hotel are fun for children?",
		Gold: []GoldIX{ix("fun", "lexical")}},
	{ID: "hard-03", Domain: "travel", Supported: true,
		Text: "Is Niagara Falls worth seeing in the winter?",
		Gold: []GoldIX{ix("worth", "lexical")}},
	{ID: "hard-04", Domain: "travel", Supported: true,
		Text: "Which hotels offer a quiet room with a view?",
		Gold: []GoldIX{ix("quiet", "lexical")}},
	{ID: "hard-05", Domain: "food", Supported: true,
		Text: "Where can I find fresh vegetables in Buffalo?",
		Gold: []GoldIX{ix("find", "participant"), ix("fresh", "lexical")}},
	{ID: "hard-06", Domain: "travel", Supported: true,
		Text: "What is the cheapest way to get to Niagara Falls?",
		Gold: []GoldIX{ix("cheap", "lexical")}},
	{ID: "hard-07", Domain: "travel", Supported: true,
		Text: "Do locals take the subway at night?",
		Gold: []GoldIX{ix("take", "participant")}},
	{ID: "hard-08", Domain: "travel", Supported: true,
		// comparative over recorded facts: no individual parts.
		Text: "Which city has a bigger zoo, Buffalo or Chicago?",
		Gold: nil},
	{ID: "hard-09", Domain: "travel", Supported: true,
		// "open" is a recorded fact (opening hours), not an opinion.
		Text: "Are the botanical gardens open in the winter?",
		Gold: nil},
	{ID: "hard-10", Domain: "shopping", Supported: true,
		Text: "What camera brands do professional photographers prefer?",
		Gold: []GoldIX{ix("prefer", "lexical")}},
	{ID: "hard-11", Domain: "food", Supported: true,
		Text: "Smoothies are a popular breakfast in California.",
		Gold: []GoldIX{ix("popular", "lexical")}},
	{ID: "hard-12", Domain: "food", Supported: true,
		Text: "Which dish at Anchor Bar is overrated?",
		Gold: []GoldIX{ix("overrated", "lexical")}},
	{ID: "hard-13", Domain: "travel", Supported: true,
		Text: "Can you suggest a good hotel near the airport?",
		Gold: []GoldIX{ix("suggest", "lexical", "participant"), ix("good", "lexical")}},
	{ID: "hard-14", Domain: "travel", Supported: true,
		// "top floor" is a location, not a judgement; "scary" is one.
		Text: "Is the top floor of the Stratosphere scary?",
		Gold: []GoldIX{ix("scary", "lexical")}},
	{ID: "hard-15", Domain: "travel", Supported: true,
		Text: "What are the opening hours of the Buffalo Zoo?",
		Gold: nil},

	// ---- Entertainment ----
	{ID: "entertainment-01", Domain: "entertainment", Supported: true,
		Text: "Which casino has the best shows?",
		Gold: []GoldIX{ix("good", "lexical")}},
	{ID: "entertainment-02", Domain: "entertainment", Supported: true,
		Text: "Do people enjoy the Fountains of Bellagio at night?",
		Gold: []GoldIX{ix("enjoy", "lexical", "participant")}},
	{ID: "entertainment-03", Domain: "entertainment", Supported: true,
		Text: "Should we watch the fountain show in the evening?",
		Gold: []GoldIX{ix("watch", "participant", "syntactic")}},
	{ID: "entertainment-04", Domain: "entertainment", Supported: true,
		Text: "What music do locals listen to in Buffalo?",
		Gold: []GoldIX{ix("listen", "participant")}},
	{ID: "entertainment-05", Domain: "entertainment", Supported: true,
		// "fun" usually tags as a noun: recall bait.
		Text: "Is the Adventuredome fun for teenagers?",
		Gold: []GoldIX{ix("fun", "lexical")}},
	{ID: "entertainment-06", Domain: "entertainment", Supported: false, UnsupportedCategory: "causal",
		Text: "Why do people gamble?"},
	{ID: "entertainment-07", Domain: "entertainment", Supported: true,
		// Counting question over recorded facts; the parse is rough
		// (the verb reads as a noun) but the count still translates.
		Text: "How many shows run nightly in Vegas?",
		Gold: nil},
	{ID: "entertainment-08", Domain: "entertainment", Supported: true,
		Text: "Which show at the Bellagio is overrated?",
		Gold: []GoldIX{ix("overrated", "lexical")}},

	// ---- Analytic (counting) questions ----
	// Aggregate readings the tentpole ships end-to-end: global counts
	// and counting superlatives over recorded facts, plus the crowd
	// majority quantifier.
	{ID: "agg-01", Domain: "travel", Supported: true,
		// Counting superlative: GROUP BY city, ORDER BY count DESC LIMIT 1.
		Text: "Which city has the most attractions?",
		Gold: nil},
	{ID: "agg-02", Domain: "travel", Supported: true,
		Text: "How many parks are in Buffalo?",
		Gold: nil},
	{ID: "agg-03", Domain: "food", Supported: true,
		// Majority quantifier on the participant: a 0.5 support threshold,
		// not a count.
		Text: "What do most people eat for breakfast?",
		Gold: []GoldIX{ix("eat", "participant")}},

	// ---- Family ----
	{ID: "family-01", Domain: "family", Supported: true,
		Text: "Which museums in Buffalo are good for kids?",
		Gold: []GoldIX{ix("good", "lexical")}},
	{ID: "family-02", Domain: "family", Supported: true,
		Text: "Where do families eat near Delaware Park?",
		Gold: []GoldIX{ix("eat", "participant")}},
	{ID: "family-03", Domain: "family", Supported: true,
		Text: "Should my kids swim at Woodlawn Beach in the summer?",
		Gold: []GoldIX{ix("swim", "participant", "syntactic")}},
	{ID: "family-04", Domain: "family", Supported: true,
		Text: "What snacks should I bring to the zoo?",
		Gold: []GoldIX{ix("bring", "participant", "syntactic")}},
	{ID: "family-05", Domain: "family", Supported: true,
		Text: "Is the Buffalo Zoo safe for toddlers?",
		Gold: []GoldIX{ix("safe", "lexical")}},
	{ID: "family-06", Domain: "family", Supported: true,
		Text: "Which parks have playgrounds?",
		Gold: nil},
	{ID: "family-07", Domain: "family", Supported: true,
		Text: "What do children drink for breakfast?",
		Gold: []GoldIX{ix("drink", "participant")}},
	{ID: "family-08", Domain: "family", Supported: false, UnsupportedCategory: "descriptive",
		Text: "How to plan a family trip?"},
}

// All returns the whole corpus (a copy).
func All() []Question {
	out := make([]Question, len(questions))
	copy(out, questions)
	return out
}

// Supported returns the questions that pass verification.
func Supported() []Question {
	var out []Question
	for _, q := range questions {
		if q.Supported {
			out = append(out, q)
		}
	}
	return out
}

// Unsupported returns the questions verification should reject.
func Unsupported() []Question {
	var out []Question
	for _, q := range questions {
		if !q.Supported {
			out = append(out, q)
		}
	}
	return out
}

// RunningExample is the paper's running example question (Figure 1).
const RunningExampleID = "travel-01"
