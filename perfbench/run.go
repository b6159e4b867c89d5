package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"nl2cm"
)

// reply is what one op returns; the output checks read it after the
// timed chunk it ran in.
type reply struct {
	res   *nl2cm.Result
	rend  *nl2cm.Rendering
	exec  *nl2cm.ExecResult
	fresh int // fresh-entity read: index into bench.fresh of the entity it names
	added int // write: triples inserted
	gone  int // write: triples deleted
	err   error
}

// do runs one op: the timed call.
func (b *bench) do(ctx context.Context, o *op) reply {
	t := b.tracer
	t.begin("op")
	defer t.end()
	switch o.kind {
	case opWrite:
		f := &b.fresh[b.writes%len(b.fresh)]
		b.writes++
		t.begin("rdf.Apply")
		added, gone, _, err := b.onto.Store.Apply(f.batch)
		t.end()
		if t != nil {
			// Time the derived-index rebuild the batch forces, which an
			// untraced run pays inside the next read's entity lookups.
			t.begin("ontology.Rebuild")
			b.onto.ResolveEntity(f.local)
			t.end()
		}
		return reply{added: added, gone: gone, err: err}

	case opExecute:
		if o.reset {
			b.eng.ResetCache()
		}
		res, err := b.translate(ctx, b.items[o.item].text, nil)
		if err != nil {
			return reply{err: err}
		}
		t.begin("crowd.Execute")
		out, err := b.eng.Execute(ctx, res.Query)
		t.end()
		return reply{res: res, exec: out, err: err}
	}

	text, fresh := "", -1
	if o.item < 0 {
		fresh = (b.writes + len(b.fresh) - 1) % len(b.fresh)
		text = b.fresh[fresh].text
	} else {
		text = b.items[o.item].text
	}
	res, err := b.translate(ctx, text, b.backend[o.dialect])
	if err != nil || !res.Verdict.Supported {
		return reply{res: res, fresh: fresh, err: err}
	}
	t.begin("emit.Render")
	rend, err := res.Render(o.dialect)
	t.end()
	return reply{res: res, rend: rend, fresh: fresh, err: err}
}

// translate is the daemon's doTranslate: an admin-traced translation,
// rendering extra backends when the request names one.
func (b *bench) translate(ctx context.Context, text string, backends []string) (*nl2cm.Result, error) {
	b.tracer.begin("core.Translate")
	defer b.tracer.end()
	return b.tr.Translate(ctx, text, nl2cm.Options{Trace: true, Backends: backends, Observer: b.obs})
}

// check validates one op's reply against its oracle and tallies the
// input properties the report prints.
func (b *bench) check(o *op, r reply) error {
	if r.err != nil {
		return r.err
	}
	st := &b.stats
	switch o.kind {
	case opWrite:
		st.writes++
		if r.added != 2 || r.gone != 2 {
			return fmt.Errorf("write batch %d: added %d, deleted %d triples, want 2 and 2", b.writes, r.added, r.gone)
		}
		return nil
	case opExecute:
		it := &b.items[o.item]
		st.translates++
		st.outcomes[r.res.CacheOutcome]++
		if b.record != nil {
			b.record = append(b.record, r.res.CacheOutcome)
		}
		st.whereRows += r.exec.WhereBindings
		st.tasks += r.exec.TasksIssued
		if r.res.CacheOutcome != "hit" {
			return fmt.Errorf("%s: plan cache outcome %q, want hit", it.id, r.res.CacheOutcome)
		}
		if got := canonBindings(r.exec); got != b.exec[o.item] {
			return fmt.Errorf("%s: bindings differ from the warm-up pass\ngot:\n%s\nwant:\n%s", it.id, got, b.exec[o.item])
		}
		return nil
	}

	st.translates++
	outcome := r.res.CacheOutcome
	if outcome == "" {
		outcome = "bypass"
	}
	st.outcomes[outcome]++
	if b.record != nil {
		b.record = append(b.record, outcome)
	}
	switch b.name {
	case wTranslateCold:
		if outcome != "bypass" {
			return fmt.Errorf("plan cache outcome %q with no cache installed", outcome)
		}
	case wServeHot:
		if outcome != "hit" && outcome != "rebound" {
			return fmt.Errorf("plan cache outcome %q, want hit or rebound", outcome)
		}
	}

	var id, want string
	if r.fresh >= 0 {
		f := &b.fresh[r.fresh]
		id, want = f.text, f.want
	} else {
		it := &b.items[o.item]
		id = it.id
		if !it.supported {
			st.rejected++
			if r.res.Verdict.Supported || string(r.res.Verdict.Category) != it.category {
				return fmt.Errorf("%s: verdict supported=%v category %q, want rejected as %q",
					id, r.res.Verdict.Supported, r.res.Verdict.Category, it.category)
			}
			return nil
		}
		want = it.want[o.dialect]
	}
	if !r.res.Verdict.Supported {
		return fmt.Errorf("%s: rejected: %s", id, r.res.Verdict.Reason)
	}
	if got := renderEntry(r.rend); got != want {
		return fmt.Errorf("%s: %s output differs from its oracle\ngot:\n%s\nwant:\n%s", id, o.dialect, got, want)
	}
	return nil
}

// phase is one timed stretch of the op list.
type phase struct {
	ops     int
	elapsed time.Duration
	lat     []time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	gcPause uint64 // ns
	answers uint64 // crowd member answers computed (support misses × sample)
	hits    uint64 // support-cache hits
	misses  uint64 // support-cache misses
	epochs  uint64 // store epochs published
}

// chunk is how many ops run between two output checks: replies are
// checked, and the heap counters read, outside the timed stretch.
const chunk = 128

// runPhase runs ops from b.next until the timed stretch reaches limit
// and the next pass boundary, until maxOps ops have run (0: no op
// limit), or until lat, which receives the per-op latencies, is full.
// Ending on a pass boundary asks every item equally often, so the
// per-op counts do not depend on where the clock ran out. The phase's
// latencies come back sorted.
func (b *bench) runPhase(limit time.Duration, maxOps int, lat []time.Duration) phase {
	ctx := context.Background()
	p := phase{lat: lat[:0]}
	replies := make([]reply, chunk)
	lats := make([]time.Duration, chunk)
	kinds := make([]*op, chunk)
	var m0, m1 runtime.MemStats
	es0 := b.eng.Stats()
	epoch0 := b.onto.Epoch()
	for (p.elapsed < limit || b.next%b.pass != 0) && (maxOps == 0 || p.ops < maxOps) && cap(p.lat)-len(p.lat) >= chunk {
		n := chunk
		if maxOps > 0 && maxOps-p.ops < n {
			n = maxOps - p.ops
		}
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for j := 0; j < n; j++ {
			o := &b.ops[(b.next+j)%len(b.ops)]
			t0 := time.Now()
			replies[j] = b.do(ctx, o)
			lats[j] = time.Since(t0)
			kinds[j] = o
			if p.elapsed+time.Since(start) >= limit && (b.next+j+1)%b.pass == 0 {
				n = j + 1
			}
		}
		p.elapsed += time.Since(start)
		runtime.ReadMemStats(&m1)
		p.mallocs += m1.Mallocs - m0.Mallocs
		p.bytes += m1.TotalAlloc - m0.TotalAlloc
		p.gcs += m1.NumGC - m0.NumGC
		p.gcPause += m1.PauseTotalNs - m0.PauseTotalNs
		for j := 0; j < n; j++ {
			if err := b.check(kinds[j], replies[j]); err != nil {
				b.stats.failed++
				if b.stats.firstErr == nil {
					b.stats.firstErr = err
				}
			}
			if kinds[j].kind == opExecute {
				b.stats.itemTime[kinds[j].item] += lats[j].Seconds()
			}
			replies[j] = reply{}
		}
		p.lat = append(p.lat, lats[:n]...)
		b.next = (b.next + n) % len(b.ops)
		p.ops += n
	}
	es1 := b.eng.Stats()
	p.hits = es1.SupportCacheHits - es0.SupportCacheHits
	p.misses = es1.SupportCacheMisses - es0.SupportCacheMisses
	p.answers = p.misses * uint64(b.sample)
	p.epochs = b.onto.Epoch() - epoch0
	slices.Sort(p.lat)
	return p
}

// maxLatencies bounds the ops one phase records: 2^23 ops, far more than
// a 60-second run reaches.
const maxLatencies = 1 << 23

// latencyBuffer returns an empty slice with room for maxLatencies
// latencies, mapped outside the Go heap; its pages become resident only
// as ops fill them. A heap slice that grew with the op count would raise
// the collector's heap goal as a run went on, so GC frequency, the
// latency tail and peak RSS would depend on how many ops the run
// managed.
func latencyBuffer() ([]time.Duration, error) {
	size := maxLatencies * int(unsafe.Sizeof(time.Duration(0)))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("mapping the latency buffer: %w", err)
	}
	return unsafe.Slice((*time.Duration)(unsafe.Pointer(&mem[0])), maxLatencies)[:0], nil
}

// quantile returns the nearest-rank q-quantile of the sorted latencies,
// in ms.
func quantile(sorted []time.Duration, q float64) float64 {
	k := int(q*float64(len(sorted))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	return float64(sorted[k]) / float64(time.Millisecond)
}

func meanMs(lat []time.Duration) float64 {
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return float64(sum) / float64(len(lat)) / float64(time.Millisecond)
}

// shapes counts the distinct shape keys and the variants among items.
func (b *bench) shapes() (distinct, variants int) {
	seen := map[string]bool{}
	for _, it := range b.items {
		if it.shape != "" {
			seen[it.shape] = true
		}
		if it.variant {
			variants++
		}
	}
	return len(seen), variants
}

// heaviest returns the item that took the most execute-crowd time and
// its share of the timed stretch.
func (b *bench) heaviest(p phase) (string, float64) {
	best, bestT := -1, 0.0
	for i, s := range b.stats.itemTime {
		if s > bestT || (s == bestT && i < best) {
			best, bestT = i, s
		}
	}
	if best < 0 {
		return "", 0
	}
	return strings.TrimSpace(b.items[best].text), bestT / p.elapsed.Seconds()
}
