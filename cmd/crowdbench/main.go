// Command crowdbench measures crowd-mining execution at population
// scale: significance decisions over a synthetic crowd, fixed full
// sampling versus sequential-sampling early termination (both stopping
// rules), cross-checking that all three modes agree task for task. It
// prints one JSON record. perfbench has no crowd-scale workload yet;
// until it has, this command is how that path is measured.
//
// Usage:
//
//	crowdbench [-members 1000000] [-tasks 24] [-threshold 0.35]
//	           [-seed 7] [-skew 1] [-spam 0.02] [-out crowd.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"nl2cm"
)

// modeResult is one execution mode's measurements.
type modeResult struct {
	Mode          string  `json:"mode"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	MemberAnswers uint64  `json:"member_answers"`
	AnswersSaved  uint64  `json:"answers_saved"`
	EarlyDecided  uint64  `json:"early_decided"`
	FullySampled  uint64  `json:"fully_sampled"`
	Batches       uint64  `json:"batches"`
	Significant   int     `json:"significant"`
}

// record is the crowdbench JSON output.
type record struct {
	Members    int          `json:"members"`
	Tasks      int          `json:"tasks"`
	Threshold  float64      `json:"threshold"`
	Seed       int64        `json:"seed"`
	Skew       float64      `json:"skew"`
	Spam       float64      `json:"spam"`
	Workers    int          `json:"workers"`
	Modes      []modeResult `json:"modes"`
	AllAgree   bool         `json:"all_modes_agree"`
	SavingsPct float64      `json:"sequential_savings_pct"`
	SpeedupX   float64      `json:"sequential_speedup_x"`
}

func main() {
	members := flag.Int("members", 1_000_000, "population size")
	tasks := flag.Int("tasks", 24, "crowd tasks per run (distinct fact keys)")
	threshold := flag.Float64("threshold", 0.35, "significance threshold")
	seed := flag.Int64("seed", 7, "population seed")
	skew := flag.Float64("skew", 1, "support skew (long tail)")
	spam := flag.Float64("spam", 0.02, "spam-worker fraction")
	out := flag.String("out", "", "write the JSON record to this file (default stdout)")
	flag.Parse()

	keys := make([]string, *tasks)
	truth := make(map[string]float64, *tasks)
	for i := range keys {
		keys[i] = fmt.Sprintf("[] visit Synth_Place_%02d", i)
		truth[keys[i]] = 0.05 + 0.67*float64(i)/float64(*tasks-1)
	}
	pop := &nl2cm.Population{N: *members, Seed: *seed, Truth: truth, Skew: *skew, SpamFraction: *spam}

	rec := record{
		Members: *members, Tasks: *tasks, Threshold: *threshold,
		Seed: *seed, Skew: *skew, Spam: *spam,
		Workers: runtime.GOMAXPROCS(0),
	}
	ctx := context.Background()
	sig := make(map[string][]bool)
	for _, mode := range []string{"fixed", "sequential-confidence", "sequential-exact"} {
		cfg := nl2cm.ScaleConfig{}
		if mode == "sequential-exact" {
			cfg.Rule = nl2cm.RuleExact
		}
		x := nl2cm.NewScaleExecutorFrom(pop, cfg)
		t0 := time.Now()
		var decided []bool
		switch mode {
		case "fixed":
			sup, err := x.Supports(ctx, keys, 0)
			if err != nil {
				log.Fatal(err)
			}
			for _, s := range sup {
				decided = append(decided, s >= *threshold)
			}
		default:
			decs, err := x.DecideThreshold(ctx, keys, *threshold, 0)
			if err != nil {
				log.Fatal(err)
			}
			for _, d := range decs {
				decided = append(decided, d.Significant)
			}
		}
		elapsed := time.Since(t0)
		st := x.Stats()
		sig[mode] = decided
		n := 0
		for _, s := range decided {
			if s {
				n++
			}
		}
		rec.Modes = append(rec.Modes, modeResult{
			Mode:          mode,
			ElapsedMS:     float64(elapsed.Microseconds()) / 1000,
			MemberAnswers: st.MemberAnswers,
			AnswersSaved:  st.AnswersSaved,
			EarlyDecided:  st.EarlyDecided,
			FullySampled:  st.FullySampled,
			Batches:       st.BatchesDispatched,
			Significant:   n,
		})
	}

	rec.AllAgree = true
	for _, mode := range []string{"sequential-confidence", "sequential-exact"} {
		for i := range keys {
			if sig[mode][i] != sig["fixed"][i] {
				rec.AllAgree = false
				log.Printf("%s disagrees with fixed on task %d", mode, i)
			}
		}
	}
	fixed, seq := rec.Modes[0], rec.Modes[1]
	if fixed.MemberAnswers > 0 {
		rec.SavingsPct = 100 * (1 - float64(seq.MemberAnswers)/float64(fixed.MemberAnswers))
	}
	if seq.ElapsedMS > 0 {
		rec.SpeedupX = fixed.ElapsedMS / seq.ElapsedMS
	}

	enc, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			log.Fatal(err)
		}
		return
	}
	os.Stdout.Write(enc)
}
