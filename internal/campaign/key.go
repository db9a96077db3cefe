package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"grp/internal/compiler"
	"grp/internal/core"
	"grp/internal/cpu"
	"grp/internal/faults"
	"grp/internal/mem"
	"grp/internal/sim"
	"grp/internal/workloads"
)

// cacheSchemaVersion invalidates every cached cell at once; bump it when
// the on-disk format, the key canonicalization, or simulator-wide timing
// semantics change.
//
// 2: Result gained MemDigest; cached JSON from schema 1 would deserialize
// it as zero.
//
// 3: the hot-path overhaul made same-doneAt arrivals drain in FIFO issue
// order (the legacy heap's tie order was unspecified), which decides L2
// LRU state and pointer-scan order — pre-overhaul cached cells are
// timing-incompatible. Options also gained LegacyEngine, which the key
// carried until schema 7.
//
// 4: Result gained the Attrib attribution summary and Options gained the
// Attrib flag (now in the key); schema-3 cells would deserialize an
// attribution-requesting cell with Attrib nil.
//
// 5: the scheme family grew ghb and grp-adaptive and the shared
// region-queue code gained a capacity override; the scheme axis's value
// domain changed, so schema-4 stores must not be consulted for cells that
// could collide with the new names.
//
// 6: co-run mode — Options gained CoRun (now in the key, with each
// co-runner's program hash) and Result gained the CoRun context; a
// schema-5 cell deserialized into a co-run-aware reader would silently
// present a solo result for a co-run cell or drop the CoRun field.
//
// 7: the legacy engine and Options.LegacyEngine are gone, and with them
// the legacy_engine key field; every key's canonical form changed.
//
// 8: Options.PrefetchInsertMRU and Options.OpenPageFirst are gone, and
// with them the prefetch_insert_mru and open_page_first key lines; each
// setting keys once, as l2.mru and mem.open_page_first.
const cacheSchemaVersion = 8

// SchemaVersion reports the store's cell schema version. Fleet
// dashboards compare it across servers (via the build-info gauge) to
// detect skew: two servers sharing a store with different schema
// versions silently treat each other's cells as corrupt.
func SchemaVersion() int { return cacheSchemaVersion }

// schemeVersions fingerprints each prefetch-engine implementation. The
// workload side of a cell is content-addressed through the compiled
// program hash, but Go code is not visible to the key, so engine edits
// are declared here: bump a scheme's version when its engine changes and
// only that scheme's cells go dirty on the next campaign.
var schemeVersions = map[core.Scheme]int{
	core.NoPrefetch:  1,
	core.PerfectL1:   1,
	core.PerfectL2:   1,
	core.StridePF:    1,
	core.SRP:         1,
	core.GRPFix:      1,
	core.GRPVar:      1,
	core.PointerOnly: 1,
	core.SoftwarePF:  1,
	core.GHB:         1,
	core.GRPAdaptive: 1,
}

// CellKey is the content address of one simulation cell: the SHA-256 of
// the canonicalized effective configuration plus the compiled workload
// program hash.
type CellKey struct {
	Bench  string
	Scheme core.Scheme
	Digest string // 64 hex characters
}

// canonicalize writes the cell's effective configuration as sorted
// "key=value" lines. Every default is resolved before serialization
// (opt.Mem == nil hashes identically to an explicit DefaultMemConfig), so
// the key depends on what the simulator will actually do, not on how the
// caller spelled it.
func canonicalize(bench string, sc core.Scheme, opt core.Options, progHash uint64, coRunHashes []uint64) string {
	kv := map[string]string{}
	set := func(k string, v interface{}) { kv[k] = fmt.Sprint(v) }

	set("schema", cacheSchemaVersion)
	set("bench", bench)
	set("scheme", sc.String())
	set("scheme.version", schemeVersions[sc])
	set("prog.hash", fmt.Sprintf("%016x", progHash))

	set("factor", opt.Factor.String())
	set("policy", opt.Policy.String())
	set("max_instrs", opt.MaxInstrs)
	set("disable_prioritizer", opt.DisablePrioritizer)
	set("srp_fifo", opt.SRPFIFO)
	set("srp_region_blocks", opt.SRPRegionBlocks)
	set("recursion_depth", opt.RecursionDepth)
	set("metrics", opt.Metrics)
	set("sample_interval", opt.SampleInterval)
	set("attrib", opt.Attrib)
	set("check_invariants", opt.CheckInvariants)
	set("invariant_every", opt.InvariantEvery)
	// The tamper hook is a function, invisible to content addressing; its
	// presence must still split the key so a tampered run can never serve
	// as a clean cache hit (or vice versa).
	set("tamper", opt.TamperPrefetchFill != nil)
	// Co-run cells depend on every core's program, not just core 0's: the
	// co-runner list is ordered (core ids) and each co-runner's compiled
	// program is content-addressed alongside the cell's own prog.hash.
	set("corun", strings.Join(opt.CoRun, "+"))
	for i, h := range coRunHashes {
		set(fmt.Sprintf("corun.hash.%d", i), fmt.Sprintf("%016x", h))
	}

	memCfg := sim.DefaultMemConfig()
	if opt.Mem != nil {
		memCfg = *opt.Mem
	}
	set("l1.size", memCfg.L1.SizeBytes)
	set("l1.assoc", memCfg.L1.Assoc)
	set("l1.block", memCfg.L1.BlockBytes)
	set("l1.hit", memCfg.L1.HitLatency)
	set("l1.mshrs", memCfg.L1.MSHRs)
	set("l1.perfect", memCfg.L1.Perfect)
	set("l1.mru", memCfg.L1.PrefetchInsertMRU)
	set("l2.size", memCfg.L2.SizeBytes)
	set("l2.assoc", memCfg.L2.Assoc)
	set("l2.block", memCfg.L2.BlockBytes)
	set("l2.hit", memCfg.L2.HitLatency)
	set("l2.mshrs", memCfg.L2.MSHRs)
	set("l2.perfect", memCfg.L2.Perfect)
	set("l2.mru", memCfg.L2.PrefetchInsertMRU)
	set("dram.channels", memCfg.DRAM.Channels)
	set("dram.banks", memCfg.DRAM.BanksPerChannel)
	set("dram.row", memCfg.DRAM.RowBytes)
	set("dram.block", memCfg.DRAM.BlockBytes)
	set("dram.rowhit", memCfg.DRAM.RowHitCycles)
	set("dram.rowmiss", memCfg.DRAM.RowMissCycles)
	set("dram.xfer", memCfg.DRAM.TransferCycles)
	set("dram.busyhit", memCfg.DRAM.BankBusyHit)
	set("dram.busymiss", memCfg.DRAM.BankBusyMiss)
	set("mem.inflight_pf", memCfg.MaxInflightPrefetches)
	set("mem.open_page_first", memCfg.OpenPageFirst)

	cpuCfg := cpu.Default()
	if opt.CPU != nil {
		cpuCfg = *opt.CPU
	}
	set("cpu.fetch", cpuCfg.FetchWidth)
	set("cpu.issue", cpuCfg.IssueWidth)
	set("cpu.commit", cpuCfg.CommitWidth)
	set("cpu.rob", cpuCfg.ROBSize)
	set("cpu.memports", cpuCfg.MemPorts)
	set("cpu.branch_penalty", cpuCfg.BranchPenalty)
	set("cpu.predictor", cpuCfg.PredictorEntries)
	set("cpu.max_instrs", cpuCfg.MaxInstrs)

	plan := faults.Plan{}
	if opt.Faults != nil {
		plan = *opt.Faults
	}
	set("faults.seed", plan.Seed)
	set("faults.drop", plan.DropIssue)
	set("faults.truncate", plan.TruncateRegion)
	set("faults.corrupt", plan.CorruptHint)
	set("faults.cancel", plan.CancelInflight)
	set("faults.degrade", plan.DegradeChannel)
	set("faults.degrade_cycles", plan.DegradeCycles)
	set("faults.stuck", plan.StuckBank)
	set("faults.stuck_cycles", plan.StuckCycles)
	set("faults.mshr_steal", plan.MSHRSteal)
	set("faults.delay_fill", plan.DelayFill)
	set("faults.delay_cycles", plan.DelayFillCycles)

	wd := sim.WatchdogConfig{}
	if opt.Watchdog != nil {
		wd = *opt.Watchdog
	}
	set("watchdog", fmt.Sprintf("%+v", wd))

	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(kv[k])
		b.WriteByte('\n')
	}
	return b.String()
}

// cellKey computes the content address of one cell. Co-run cells pass
// one hash per co-runner (core order); solo cells pass none.
func cellKey(bench string, sc core.Scheme, opt core.Options, progHash uint64, coRunHashes ...uint64) CellKey {
	sum := sha256.Sum256([]byte(canonicalize(bench, sc, opt, progHash, coRunHashes)))
	return CellKey{Bench: bench, Scheme: sc, Digest: hex.EncodeToString(sum[:])}
}

// programHash digests the compiled workload exactly as core.Run will
// execute it: the full instruction stream with hint bits and coefficients,
// the initialized memory image, and the instruction budget. Building,
// initializing and digesting the image is nearly all of its cost;
// compiling is a few percent. It is still far cheaper than simulating, so
// the key stays honest about compiler, workload, and policy edits without
// a manual version.
func programHash(bench string, f workloads.Factor, pol compiler.Policy, swpf bool) (uint64, error) {
	spec, err := workloads.ByName(bench)
	if err != nil {
		return 0, err
	}
	built := spec.Build(f)
	m := mem.New()
	var cg compiler.CodegenOptions
	cg.SoftwarePrefetch = swpf
	prog, layout, _, err := compiler.CompileWorkloadOpts(built.Prog, m, pol, cg)
	if err != nil {
		return 0, err
	}
	built.Init(m, layout)

	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, s := range prog.Name {
		mix(uint64(s))
	}
	for _, in := range prog.Instrs {
		mix(uint64(in.Op))
		mix(uint64(in.Rd) | uint64(in.Rs1)<<8 | uint64(in.Rs2)<<16)
		mix(uint64(in.Imm))
		mix(uint64(in.Target))
		mix(uint64(in.Hint) | uint64(in.Coeff)<<8)
	}
	mix(m.Digest())
	mix(built.MaxInstrs)
	return h, nil
}

// program is what programHash digests: one kernel built at one factor
// and compiled under one policy, with or without software-prefetch
// codegen.
type program struct {
	bench  string
	factor workloads.Factor
	policy compiler.Policy
	swpf   bool
}

// programsOf returns the programs a job runs, in core order: its own
// bench, then each co-runner's, all under the job's factor, policy and
// codegen.
func programsOf(j Job) []program {
	ps := make([]program, 0, 1+len(j.Opt.CoRun))
	p := program{bench: j.Bench, factor: j.Opt.Factor, policy: j.Opt.Policy, swpf: j.Scheme == core.SoftwarePF}
	ps = append(ps, p)
	for _, b := range j.Opt.CoRun {
		p.bench = b
		ps = append(ps, p)
	}
	return ps
}

// hashMemo deduplicates program hashing across the cells of one campaign:
// every scheme of a bench shares one hash (SoftwarePF recompiles, its
// codegen differs).
type hashMemo struct {
	mu sync.Mutex
	m  map[program]uint64
}

func newHashMemo() *hashMemo { return &hashMemo{m: map[program]uint64{}} }

func (hm *hashMemo) get(p program) (uint64, error) {
	hm.mu.Lock()
	if v, ok := hm.m[p]; ok {
		hm.mu.Unlock()
		return v, nil
	}
	hm.mu.Unlock()
	// Hash outside the lock: Keys hashes a grid's distinct programs in
	// parallel through the memo, and workers that key their cells as they
	// go (RunOne) may ask for the same program at once; a duplicate hash
	// is wasted work, never wrong.
	v, err := programHash(p.bench, p.factor, p.policy, p.swpf)
	if err != nil {
		return 0, err
	}
	hm.mu.Lock()
	hm.m[p] = v
	hm.mu.Unlock()
	return v, nil
}

// key computes a job's content address, hashing each of its programs the
// memo does not hold yet, in core order.
func (hm *hashMemo) key(j Job) (CellKey, error) {
	ps := programsOf(j)
	hs := make([]uint64, len(ps))
	for i, p := range ps {
		h, err := hm.get(p)
		if err != nil {
			return CellKey{}, err
		}
		hs[i] = h
	}
	return cellKey(j.Bench, j.Scheme, j.Opt, hs[0], hs[1:]...), nil
}
