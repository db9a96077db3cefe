package sim

import (
	"testing"

	"grp/internal/isa"
	"grp/internal/metrics"
	"grp/internal/prefetch"
	"grp/internal/trace"
)

// TestAttachTelemetryRegistry checks that attaching telemetry to a live
// memory system's port registers the hierarchy's instruments and that
// probes see the system's real state.
func TestAttachTelemetryRegistry(t *testing.T) {
	ms := newSys(prefetch.NewSRP())
	reg := metrics.NewRegistry()
	smp := metrics.NewSampler(256)
	ms.Attach(Instruments{Registry: reg, Sampler: smp})

	for _, name := range []string{
		"l1d.accesses", "l2.miss_rate", "dram.utilization",
		HistDemandMissLatency, HistPrefetchLatency,
		SeriesInflightPF, SeriesMSHROcc, SeriesPFQueueOcc,
	} {
		found := false
		for _, n := range reg.Names() {
			if n == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("registry missing %q after Attach", name)
		}
	}

	// Drive enough misses to trip the SRP region prefetcher and cross
	// several sampler boundaries.
	now := uint64(100)
	for i := uint64(0); i < 32; i++ {
		now = ms.Load(0, 0x40000+i*4096, isa.HintNone, isa.FixedRegion, now+50)
	}
	ms.Drain()

	snap := metrics.Snap(reg, smp)
	if h := snap.Histogram(HistDemandMissLatency); h == nil || h.Count == 0 {
		t.Error("demand miss latency histogram empty after 32 cold misses")
	}
	if h := snap.Histogram(HistPrefetchLatency); h == nil || h.Count == 0 {
		t.Error("prefetch latency histogram empty despite SRP issuing")
	}
	if s := snap.GetSeries(SeriesL2MissRate); s == nil || len(s.Samples) < 2 {
		t.Error("L2 miss-rate series did not accumulate samples")
	}
}

// TestTimelinePrefetchOutcomes checks the span lifecycle: an SRP-covered
// demand hit upgrades its prefetch span to "useful".
func TestTimelinePrefetchOutcomes(t *testing.T) {
	ms := newSys(prefetch.NewSRP())
	tl := trace.NewTimeline()
	ms.Attach(Instruments{Timeline: tl})

	d1 := ms.Load(0, 0x10000, isa.HintNone, isa.FixedRegion, 100)
	ms.Advance(d1 + 20000)
	if ms.Stats().PrefetchesIssued == 0 {
		t.Fatal("SRP should have issued prefetches")
	}
	before := tl.Len()
	if before == 0 {
		t.Fatal("timeline recorded no prefetch/demand events")
	}
	// Hit a prefetched neighbor: the span's outcome flips to useful in
	// place, and the hint→prefetch flow finishes — exactly one flow-finish
	// event is appended, nothing else.
	ms.Load(0, 0x10040, isa.HintNone, isa.FixedRegion, d1+30000)
	if tl.Len() != before+1 {
		t.Errorf("outcome upgrade appended %d events, want exactly the flow finish", tl.Len()-before)
	}
}

// TestTamperSeesOwnFills: in a co-run each prefetch fill calls its owner's
// tamper with the owner's local block address, never another core's.
func TestTamperSeesOwnFills(t *testing.T) {
	cs, err := NewCoRunSystem(DefaultMemConfig(), []prefetch.Engine{prefetch.NewSRP(), prefetch.NewSRP()})
	if err != nil {
		t.Fatal(err)
	}
	const regions = 8
	bases := []uint64{0x100000, 0x900000}
	seen := make([][]uint64, len(bases))
	for i := range bases {
		i := i
		cs.Port(i).Attach(Instruments{Tamper: func(block uint64) { seen[i] = append(seen[i], block) }})
	}
	now := uint64(100)
	for k := uint64(0); k < regions; k++ {
		for i, base := range bases {
			now = cs.Port(i).Load(0, base+k*4096, isa.HintNone, isa.FixedRegion, now+50)
		}
	}
	cs.Drain()
	for i, base := range bases {
		if len(seen[i]) == 0 {
			t.Errorf("core %d's tamper saw no prefetch fill", i)
		}
		for _, b := range seen[i] {
			if b < base || b >= base+regions*4096 {
				t.Errorf("core %d's tamper saw block %#x outside its regions [%#x, %#x)", i, b, base, base+regions*4096)
				break
			}
		}
	}
}
