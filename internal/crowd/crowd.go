// Package crowd simulates the crowd of web users behind the OASSIS query
// engine and implements the engine itself: WHERE clauses are evaluated
// against the ontology, SATISFYING clauses are evaluated by asking
// simulated crowd members about ground data patterns, and the per-pattern
// support — a habit frequency or a level of agreement aggregated over
// members (paper §2.1) — drives threshold and top-k significance
// selection.
//
// The simulation is deterministic per seed: each member's answer for a
// fact-set derives from a latent population mean (curated demo truth or a
// seed-hashed default) plus member-specific noise, so experiments are
// reproducible while still exhibiting a realistic answer spread.
package crowd

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"nl2cm/internal/oassisql"
	"nl2cm/internal/rdf"
)

// Crowd is a simulated population of web users.
type Crowd struct {
	// Size is the population size.
	Size int
	// Seed drives all pseudo-random member behaviour.
	Seed int64
	// Truth optionally fixes the latent population mean support per
	// fact-set key (see FactKey); keys not present get a seed-hashed
	// default in [0.05, 0.65].
	Truth map[string]float64
	// Noise is the per-member answer spread around the mean (default
	// 0.15 when zero).
	Noise float64
	// SpamFraction is the share of members who answer uniformly at
	// random regardless of the question — the low-quality workers real
	// crowdsourcing platforms must cope with.
	SpamFraction float64
	// TrimFraction, when positive, makes Support use a trimmed mean:
	// that share of the highest and lowest answers is discarded before
	// averaging, bounding the influence of spam workers.
	TrimFraction float64
}

// NewCrowd returns a crowd of the given size and seed with no curated
// truth.
func NewCrowd(size int, seed int64) *Crowd {
	return &Crowd{Size: size, Seed: seed}
}

func (c *Crowd) noise() float64 {
	if c.Noise == 0 {
		return 0.15
	}
	return c.Noise
}

// FactKey canonicalizes a ground fact-set: anonymous variables collapse
// to "[]", triples are rendered in OASSIS-QL surface syntax and sorted.
func FactKey(triples []rdf.Triple) string {
	parts := make([]string, 0, len(triples))
	for _, t := range triples {
		parts = append(parts, oassisql.TermString(t.S)+" "+oassisql.TermString(t.P)+" "+oassisql.TermString(t.O))
	}
	sort.Strings(parts)
	return strings.Join(parts, " & ")
}

// fnv64a is an FNV-1a 64-bit hash state folded by value: its sums are
// those of hash/fnv's New64a over the same bytes, with no allocation.
// Every simulated draw hashes "<seed>|<tag>\0<key>\0<member>\0" (key or
// member absent for some tags), so a state folded through the key
// serves every member of one support.
type fnv64a uint64

const (
	fnvOffset fnv64a = 14695981039346656037
	fnvPrime  fnv64a = 1099511628211
)

// hash returns the state after "<seed>|<tag>\0".
func (c *Crowd) hash(tag string) fnv64a {
	return fnvOffset.int(c.Seed).byte('|').field(tag)
}

func (h fnv64a) byte(b byte) fnv64a {
	return (h ^ fnv64a(b)) * fnvPrime
}

// int folds n in decimal, as fmt prints it.
func (h fnv64a) int(n int64) fnv64a {
	var buf [20]byte
	for _, b := range strconv.AppendInt(buf[:0], n, 10) {
		h = h.byte(b)
	}
	return h
}

// field folds s and its \0 terminator.
func (h fnv64a) field(s string) fnv64a {
	for i := 0; i < len(s); i++ {
		h = h.byte(s[i])
	}
	return h.byte(0)
}

// member folds member i's decimal index and its \0 terminator.
func (h fnv64a) member(i int) fnv64a {
	return h.int(int64(i)).byte(0)
}

// unit maps the sum to [0,1).
func (h fnv64a) unit() float64 {
	return float64(uint64(h)%1_000_000) / 1_000_000
}

// Mean returns the latent population mean support for a fact-set key.
func (c *Crowd) Mean(key string) float64 {
	if v, ok := c.Truth[key]; ok {
		return clamp01(v)
	}
	// Default latent truth: most patterns are niche (low support), some
	// are popular.
	return 0.05 + 0.6*c.hash("mean").field(key).unit()
}

// IsSpammer reports whether member i is a spam worker (answers
// uniformly at random); membership is deterministic per seed.
func (c *Crowd) IsSpammer(i int) bool {
	if c.SpamFraction <= 0 {
		return false
	}
	return c.hash("spam").member(i).unit() < c.SpamFraction
}

// keyAnswers is what every member's answer to one fact-set key shares:
// the latent mean and the hash states folded through the key, so each
// member then costs only its index.
type keyAnswers struct {
	c                         *Crowd
	mean                      float64
	noise, noise2, spamAnswer fnv64a
}

func (c *Crowd) keyAnswers(key string) keyAnswers {
	a := keyAnswers{
		c:      c,
		mean:   c.Mean(key),
		noise:  c.hash("noise").field(key),
		noise2: c.hash("noise2").field(key),
	}
	if c.SpamFraction > 0 {
		a.spamAnswer = c.hash("spam-answer").field(key)
	}
	return a
}

// answer is member i's answer (see MemberAnswer).
func (a *keyAnswers) answer(i int) float64 {
	c := a.c
	if i < 0 || i >= c.Size {
		return 0
	}
	if c.IsSpammer(i) {
		return a.spamAnswer.member(i).unit()
	}
	// Symmetric triangular-ish noise from two hashes.
	n := a.noise.member(i).unit() - a.noise2.member(i).unit()
	return clamp01(a.mean + n*c.noise()*2)
}

// MemberAnswer returns member i's answer for the fact-set key: the
// frequency with which they engage in the habit, or their agreement with
// the statement, in [0,1]. Spam workers answer uniformly at random.
func (c *Crowd) MemberAnswer(i int, key string) float64 {
	a := c.keyAnswers(key)
	return a.answer(i)
}

// Support aggregates answers of a sample of members (the first `sample`
// member indices; the whole population when sample <= 0 or exceeds
// Size). With TrimFraction set, a trimmed mean bounds spam influence.
func (c *Crowd) Support(key string, sample int) float64 {
	if sample <= 0 || sample > c.Size {
		sample = c.Size
	}
	if sample == 0 {
		return 0
	}
	a := c.keyAnswers(key)
	if c.TrimFraction <= 0 || sample <= 2 {
		sum := 0.0
		for i := 0; i < sample; i++ {
			sum += a.answer(i)
		}
		return sum / float64(sample)
	}
	answers := make([]float64, sample)
	for i := range answers {
		answers[i] = a.answer(i)
	}
	sort.Float64s(answers)
	k := int(float64(sample) * c.TrimFraction)
	if 2*k >= sample {
		k = (sample - 1) / 2
	}
	sum := 0.0
	for _, v := range answers[k : sample-k] {
		sum += v
	}
	return sum / float64(sample-2*k)
}

func clamp01(v float64) float64 {
	return math.Max(0, math.Min(1, v))
}

// DemoTruth returns the curated latent truth for the demonstration
// scenarios: the running example's expected answers ("the Delaware Park
// and Buffalo Zoo may be returned", paper §2.1), the Vegas thrill-ride
// ranking, food opinions and habits.
func DemoTruth() map[string]float64 {
	return map[string]float64{
		// Interestingness opinions around Forest Hotel, Buffalo.
		`Delaware_Park hasLabel "interesting"`:         0.82,
		`Buffalo_Zoo hasLabel "interesting"`:           0.74,
		`Albright-Knox_Gallery hasLabel "interesting"`: 0.61,
		`Canalside hasLabel "interesting"`:             0.55,
		`Anchor_Bar hasLabel "interesting"`:            0.38,
		`Niagara_Falls hasLabel "interesting"`:         0.93,

		// Fall visiting habits.
		`[] in Fall & [] visit Delaware_Park`:         0.42,
		`[] in Fall & [] visit Buffalo_Zoo`:           0.31,
		`[] in Fall & [] visit Albright-Knox_Gallery`: 0.18,
		`[] in Fall & [] visit Canalside`:             0.12,
		`[] in Fall & [] visit Anchor_Bar`:            0.08,
		`[] in Fall & [] visit Niagara_Falls`:         0.27,

		// Vegas thrill rides ("Which hotel in Vegas has the best thrill
		// ride?").
		`Big_Shot hasLabel "good"`:          0.85,
		`Big_Apple_Coaster hasLabel "good"`: 0.72,
		`Adventuredome hasLabel "good"`:     0.58,

		// Food opinions and habits.
		`Chocolate_Milk for Kids & Chocolate_Milk hasLabel "good"`: 0.64,
		`[] eat Lentil_Soup`:                 0.33,
		`[] eat Oatmeal`:                     0.51,
		`[] eat Bean_Chili`:                  0.22,
		`[] eat Whole_Grain_Bread`:           0.58,
		`[] eat Quinoa_Salad`:                0.17,
		`[] in Winter & [] cook Lentil_Soup`: 0.44,
		`[] in Winter & [] cook Oatmeal`:     0.35,

		// Coffee storage habits.
		`[] at Airtight_Jar & [] store Coffee`:     0.47,
		`[] at Ceramic_Canister & [] store Coffee`: 0.21,
		`[] at Freezer_Bag & [] store Coffee`:      0.11,

		// Camera buying habits.
		`[] buy Nikon_D3500`:     0.28,
		`[] buy Canon_EOS_R50`:   0.19,
		`[] buy Sony_ZV-1`:       0.24,
		`[] buy Canon_PowerShot`: 0.12,
	}
}
