package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"grp/internal/cache"
	"grp/internal/core"
	"grp/internal/cpu"
	"grp/internal/dram"
	"grp/internal/prefetch"
	"grp/internal/sim"
)

// simStats is the modelled outcome of one core of one cell: everything
// the simulator computes, nothing the host measures.
type simStats struct {
	Bench      string
	Scheme     string
	CPU        cpu.Result
	L1, L2     cache.Stats
	Mem        sim.MemStats
	Dram       dram.Stats
	PF         prefetch.Stats
	Traffic    uint64
	ArchDigest uint64
	MemDigest  uint64
	Pollution  [2]uint64 // co-run pollution caused and suffered
}

// statsJSON renders a result's modelled statistics canonically (struct
// fields in order, map keys sorted), so equal bytes mean equal results.
func statsJSON(r *core.Result) []byte {
	s := simStats{
		Bench: r.Bench, Scheme: r.Scheme.String(), CPU: r.CPU, L1: r.L1, L2: r.L2,
		Mem: r.Mem, Dram: r.Dram, PF: r.PF, Traffic: r.TrafficBytes,
		ArchDigest: r.ArchDigest, MemDigest: r.MemDigest,
	}
	if r.CoRun != nil {
		s.Pollution = [2]uint64{r.CoRun.PollutionCaused, r.CoRun.PollutionSuffered}
	}
	data, err := json.Marshal(s)
	if err != nil {
		panic(err) // plain integers and strings always marshal
	}
	return data
}

func sameStats(a, b *core.Result) bool { return string(statsJSON(a)) == string(statsJSON(b)) }

// fingerprint hashes the modelled statistics of a fixed sequence of
// results; two commits that model the same thing print the same value.
type fingerprint struct{ h hash.Hash }

func newFingerprint() *fingerprint { return &fingerprint{h: sha256.New()} }

func (f *fingerprint) add(r *core.Result) {
	f.h.Write(statsJSON(r))
	f.h.Write([]byte{'\n'})
}

func (f *fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil))[:32] }

// checkCrossScheme holds every kernel to one architectural result across
// the schemes it ran under: prefetching is speculative, so neither the
// final registers and counters (ArchDigest) nor memory (MemDigest) may
// depend on the scheme.
func checkCrossScheme(rs []*core.Result) []error {
	type ref struct {
		arch, mem uint64
		scheme    core.Scheme
	}
	first := map[string]ref{}
	var errs []error
	for _, r := range rs {
		if r == nil {
			continue
		}
		f, ok := first[r.Bench]
		if !ok {
			first[r.Bench] = ref{r.ArchDigest, r.MemDigest, r.Scheme}
			continue
		}
		if r.ArchDigest != f.arch || r.MemDigest != f.mem {
			errs = append(errs, fmt.Errorf("%s: %s digests arch %016x mem %016x, %s gave arch %016x mem %016x",
				r.Bench, r.Scheme, r.ArchDigest, r.MemDigest, f.scheme, f.arch, f.mem))
		}
	}
	return errs
}

// checkSame demands that results repeat a reference cell for cell: a
// warm pass must return what the cold pass stored, a traced cell what the
// untraced one computed, a repeated operation what its first run did.
func checkSame(what string, want, got []*core.Result) []error {
	if len(want) != len(got) {
		return []error{fmt.Errorf("%s: %d results, want %d", what, len(got), len(want))}
	}
	var errs []error
	for i := range want {
		switch {
		case want[i] == nil || got[i] == nil:
			errs = append(errs, fmt.Errorf("%s: cell %d missing", what, i))
		case !sameStats(want[i], got[i]):
			errs = append(errs, fmt.Errorf("%s: cell %d (%s/%s) differs: %s vs %s",
				what, i, want[i].Bench, want[i].Scheme, statsJSON(got[i]), statsJSON(want[i])))
		}
	}
	return errs
}

// checkCoRunDigests demands that every core of every co-run computed the
// architectural result its kernel computes alone.
func checkCoRunDigests(runs []*core.CoRunResult, solo map[string]*core.Result) []error {
	var errs []error
	for _, cr := range runs {
		for i, r := range cr.Results {
			s := solo[r.Bench]
			if s == nil {
				errs = append(errs, fmt.Errorf("co-run core %d (%s): no solo run", i, r.Bench))
				continue
			}
			if r.ArchDigest != s.ArchDigest || r.MemDigest != s.MemDigest {
				errs = append(errs, fmt.Errorf("co-run %v core %d: arch %016x mem %016x, solo %s gave arch %016x mem %016x",
					r.CoRun.Benches, i, r.ArchDigest, r.MemDigest, r.Bench, s.ArchDigest, s.MemDigest))
			}
		}
	}
	return errs
}
