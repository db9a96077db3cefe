package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"grp/internal/core"
	"grp/internal/workloads"
)

// schema2McfGRPVarDigest is the content address the (mcf, grp/var, Test)
// cell had under cache schema 2, recorded immediately before the hot-path
// overhaul. The overhaul changed same-cycle fill ordering (FIFO by issue
// seq), so results cached under the old schema must be unreachable: the
// schema bump to 3 retires this key.
const schema2McfGRPVarDigest = "120b7bf81bb9a4a962ea5e32718e536c8f298e4c017eca8408334c33e01c24e6"

// schema4McfGRPVarDigest is the same cell's content address under cache
// schema 4, recorded immediately before the scheme family grew ghb and
// grp-adaptive (and the shared region-queue code gained a capacity
// override). The schema bump to 5 retires it.
const schema4McfGRPVarDigest = "4a5244964b9d72e94295a8b6da4e061e9e2ba3c1a026417e3e74c9b988e48cce"

// schema5McfGRPVarDigest is the same cell's content address under cache
// schema 5, recorded immediately before co-run mode landed (Options grew
// CoRun, Result grew the CoRun context). The schema bump to 6 retires it.
const schema5McfGRPVarDigest = "4b253fd98e815b2a4a52522357551db70264f07354f85c639acdcb0d29d99ccf"

// schema6McfGRPVarDigest is the same cell's content address under cache
// schema 6, recorded immediately before the legacy engine and its
// legacy_engine key field were deleted. The schema bump to 7 retires it.
const schema6McfGRPVarDigest = "2d2bd6a9e13ed684fcce55220e78ebca1d3737b6ff50fc66e09d0dcee23d2f56"

// TestSchemaBumpRetiresOldKeys recomputes the (mcf, grp/var, Test) key
// with today's canonicalization — same recipe that recorded the schema-2
// digest — and demands it moved. If this fails, either the schema was
// rolled back or canonicalize no longer folds the schema in; both would
// let stale pre-overhaul cells serve as cache hits.
func TestSchemaBumpRetiresOldKeys(t *testing.T) {
	if cacheSchemaVersion < 3 {
		t.Fatalf("cacheSchemaVersion = %d, want >= 3 after the hot-path overhaul", cacheSchemaVersion)
	}
	opt := core.Options{Factor: workloads.Test}
	ph, err := newHashMemo().get("mcf", opt.Factor, opt.Policy, false)
	if err != nil {
		t.Fatal(err)
	}
	k := cellKey("mcf", core.GRPVar, opt, ph)
	if k.Digest == schema2McfGRPVarDigest {
		t.Fatalf("(mcf, grp/var, Test) still maps to its schema-2 digest %s; stale cached cells would hit", k.Digest)
	}
	if k.Digest == schema4McfGRPVarDigest {
		t.Fatalf("(mcf, grp/var, Test) still maps to its schema-4 digest %s; stale pre-scheme-family cells would hit", k.Digest)
	}
	if k.Digest == schema5McfGRPVarDigest {
		t.Fatalf("(mcf, grp/var, Test) still maps to its schema-5 digest %s; stale pre-co-run cells would hit", k.Digest)
	}
	if k.Digest == schema6McfGRPVarDigest {
		t.Fatalf("(mcf, grp/var, Test) still maps to its schema-6 digest %s; cells keyed with legacy_engine would hit", k.Digest)
	}
}

// TestCoRunSplitsKey pins co-run cache identity three ways: a co-run
// cell never collides with its solo cell, with a different co-runner
// list, or with a different co-run width — and the co-runners' program
// hashes are part of the address, so a co-runner's workload edit dirties
// the cells it participated in.
func TestCoRunSplitsKey(t *testing.T) {
	base := core.Options{Factor: workloads.Test}
	corun := base
	corun.CoRun = []string{"art"}
	corun2 := base
	corun2.CoRun = []string{"equake"}
	corun3 := base
	corun3.CoRun = []string{"art", "equake"}

	solo := cellKey("mcf", core.GRPVar, base, 42)
	k1 := cellKey("mcf", core.GRPVar, corun, 42, 7)
	k2 := cellKey("mcf", core.GRPVar, corun2, 42, 8)
	k3 := cellKey("mcf", core.GRPVar, corun3, 42, 7, 8)
	seen := map[string]string{solo.Digest: "solo", k1.Digest: "corun=art",
		k2.Digest: "corun=equake", k3.Digest: "corun=art+equake"}
	if len(seen) != 4 {
		t.Fatalf("co-run variants collide: %v", seen)
	}
	// Same co-runner list, different co-runner program: the hash splits.
	if k1b := cellKey("mcf", core.GRPVar, corun, 42, 9); k1b.Digest == k1.Digest {
		t.Fatal("co-runner program hash does not split the cell key")
	}
}

// TestStaleSchema5CellQuarantinesOnRead plants a schema-5 envelope at a
// current key's on-disk path — what a store looks like after old cells
// are copied forward, or after a canonicalization rollback — and demands
// the read be a clean miss that moves the file into quarantine rather
// than a silent hit on pre-co-run data.
func TestStaleSchema5CellQuarantinesOnRead(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, 8)
	opt := core.Options{Factor: workloads.Test}
	k := cellKey("mcf", core.GRPVar, opt, 42)

	stale := cellFile{
		Schema: 5, // pre-co-run schema
		Key:    k.Digest,
		Bench:  "mcf",
		Scheme: core.GRPVar.String(),
		Result: &core.Result{Bench: "mcf", Scheme: core.GRPVar},
	}
	data, err := json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(k), data, 0o644); err != nil {
		t.Fatal(err)
	}

	if r, ok := s.Get(k); ok {
		t.Fatalf("schema-5 cell served as a hit: %+v", r)
	}
	if _, err := os.Stat(s.path(k)); !os.IsNotExist(err) {
		t.Fatalf("stale cell still at its live path (stat err %v)", err)
	}
	qpath := filepath.Join(dir, quarantineDirName, k.Digest+".json")
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("stale cell not quarantined at %s: %v", qpath, err)
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Quarantined != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly one corrupt+quarantined+miss", st)
	}
}

// TestNewSchemesHaveKeyedVersions pins that the scheme-version axis covers
// the new family: a missing schemeVersions entry would hash as 0 and leave
// no handle to dirty that scheme's cells on its next engine change.
func TestNewSchemesHaveKeyedVersions(t *testing.T) {
	for _, sc := range []core.Scheme{core.GHB, core.GRPAdaptive} {
		if v, ok := schemeVersions[sc]; !ok || v < 1 {
			t.Fatalf("schemeVersions[%v] = %d (present %v), want >= 1", sc, v, ok)
		}
	}
	k1 := cellKey("mcf", core.GHB, core.Options{Factor: workloads.Test}, 42)
	k2 := cellKey("mcf", core.GRPAdaptive, core.Options{Factor: workloads.Test}, 42)
	if k1.Digest == k2.Digest {
		t.Fatal("ghb and grp-adaptive cells share a content address")
	}
}

// TestAttribSplitsKey pins that an attribution-carrying run gets its own
// cache identity: a plain cell must never satisfy an -attrib request
// (its cached Result has no summary) or vice versa.
func TestAttribSplitsKey(t *testing.T) {
	base := core.Options{Factor: workloads.Test}
	attrib := base
	attrib.Attrib = true
	k1 := cellKey("mcf", core.GRPVar, base, 42)
	k2 := cellKey("mcf", core.GRPVar, attrib, 42)
	if k1.Digest == k2.Digest {
		t.Fatal("Attrib does not split the cell key")
	}
}
