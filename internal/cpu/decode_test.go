package cpu

import (
	"testing"

	"grp/internal/isa"
)

// TestDecodeMatchesISA: every opcode from OpNop to OpHalt decodes to what
// isa.Instr's own predicates and opLatency say, so an opcode added to the
// ISA that decode does not classify fails here. Every timing referee runs
// through Step too, so this table, not a timing comparison, is what keeps
// decoding honest. The operand values are distinct and wide so a field
// that decode drops, swaps or narrows shows.
func TestDecodeMatchesISA(t *testing.T) {
	for op := isa.OpNop; op <= isa.OpHalt; op++ {
		in := isa.Instr{
			Op: op, Rd: 3, Rs1: 5, Rs2: 7,
			Imm: -1 << 40, Target: 1 << 33,
			Hint: isa.HintSpatial | isa.HintPointer, Coeff: 2,
			Label: "here",
		}
		u := decode(in)
		a, b := in.Uses()
		want := uop{
			imm: in.Imm, target: in.Target, op: op,
			src1: a, src2: b, dst: in.Defines(),
			size: uint8(in.MemSize()), lat: uint8(opLatency(op)),
			hint: in.Hint, coeff: in.Coeff,
			branch: in.IsBranch(), cond: in.IsConditional(),
			kind: u.kind,
		}
		if u != want {
			t.Errorf("%s: decoded %+v, want %+v", op, u, want)
		}
		// Exactly one scheduling class, and the one the predicates name.
		if (u.kind == kindLoad) != in.IsLoad() || (u.kind == kindStore) != in.IsStore() ||
			(u.kind == kindPref) != (op == isa.OpPref) ||
			(u.kind == kindALU) != (!in.IsMem() && op != isa.OpPref) {
			t.Errorf("%s: kind %d, but IsLoad=%v IsStore=%v", op, u.kind, in.IsLoad(), in.IsStore())
		}
		if int(u.size) != in.MemSize() || uint64(u.lat) != opLatency(op) {
			t.Errorf("%s: size %d latency %d do not fit the decoded fields", op, u.size, u.lat)
		}
	}
}
