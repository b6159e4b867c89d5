package crowdscale

import (
	"hash/fnv"
	"math"
)

// Population is a synthetic crowd of arbitrary size whose members are
// derived lazily from (Seed, member index, fact key): no profile is ever
// materialized, so a million-member population costs no memory beyond
// the struct itself. It is the scale counterpart of crowd.Crowd with the
// same answer model (latent per-key mean plus per-member noise) and
// extra controls for realistic scale experiments:
//
//   - Skew biases the default latent means toward low support, so most
//     patterns are niche and a few are popular (the long tail a real
//     crowd exhibits),
//   - SpamFraction marks a deterministic share of members as spam
//     workers who answer uniformly at random.
//
// All behaviour is a pure function of the fields, so experiments are
// reproducible; hashing is allocation-free on the Sum path.
type Population struct {
	// N is the population size.
	N int
	// Seed drives all pseudo-random member behaviour.
	Seed int64
	// Truth optionally fixes the latent mean support per fact key; keys
	// not present get a seed-hashed default in [0.05, 0.65].
	Truth map[string]float64
	// Skew, when positive, skews default latent means toward low
	// support (u^(1+Skew) shaping); 0 keeps them uniform.
	Skew float64
	// Noise is the per-member answer spread around the mean (default
	// 0.15 when zero).
	Noise float64
	// SpamFraction is the share of members who answer uniformly at
	// random regardless of the question.
	SpamFraction float64
}

// Size implements Source.
func (p *Population) Size() int { return p.N }

// splitmix64 is the SplitMix64 finalizer: a fast, high-quality integer
// mixer (Steele et al.), used here to derive independent uniform streams
// from (seed, member, key) without allocating.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// u01 maps a mixed 64-bit value to [0, 1).
func u01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// keyHash folds the fact key and the seed into the per-key stream base.
func (p *Population) keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return splitmix64(h.Sum64() ^ splitmix64(uint64(p.Seed)))
}

func (p *Population) noise() float64 {
	if p.Noise == 0 {
		return 0.15
	}
	return p.Noise
}

// Mean returns the latent population mean support for a fact key.
func (p *Population) Mean(key string) float64 {
	if v, ok := p.Truth[key]; ok {
		return clamp01(v)
	}
	return p.defaultMean(p.keyHash(key))
}

func (p *Population) defaultMean(kh uint64) float64 {
	u := u01(splitmix64(kh ^ 0xA24BAED4963EE407))
	if p.Skew > 0 {
		u = math.Pow(u, 1+p.Skew)
	}
	return 0.05 + 0.6*u
}

// memberStream derives the member-only stream (the spammer flag):
// independent of the key, so a member's identity is consistent across
// questions.
func (p *Population) memberStream(member int) uint64 {
	return splitmix64(uint64(p.Seed)*0x9E3779B97F4A7C15 ^ (uint64(member)+1)*0xD1B54A32D192ED03)
}

// IsSpammer reports whether the member answers uniformly at random.
func (p *Population) IsSpammer(member int) bool {
	if p.SpamFraction <= 0 {
		return false
	}
	return u01(p.memberStream(member)) < p.SpamFraction
}

// Sum implements Source: the answers of members [from, to) for the
// key, added in member order. The key is hashed once per call; the
// per-member work is a handful of integer mixes, so sampling a million
// members is cheap and allocation-free. Members outside [0, N) answer 0.
func (p *Population) Sum(key string, from, to int) float64 {
	kh := p.keyHash(key)
	mean := 0.0
	if v, ok := p.Truth[key]; ok {
		mean = clamp01(v)
	} else {
		mean = p.defaultMean(kh)
	}
	noise := p.noise()
	sum := 0.0
	for m := max(from, 0); m < min(to, p.N); m++ {
		ms := p.memberStream(m)
		if p.SpamFraction > 0 && u01(ms) < p.SpamFraction {
			sum += u01(splitmix64(kh ^ ms))
			continue
		}
		r := splitmix64(kh ^ (uint64(m)+1)*0x9E3779B97F4A7C15)
		n := (u01(r) - u01(splitmix64(r))) * 2 * noise
		sum += clamp01(mean + n)
	}
	return sum
}

// Answer returns one member's answer for the key: a one-member Sum.
func (p *Population) Answer(member int, key string) float64 {
	return p.Sum(key, member, member+1)
}
