package knowledge

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// FuzzTrailOps drives a Trail with an arbitrary operation tape and checks
// its structural invariants after every operation.
func FuzzTrailOps(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 2, 3, 1, 0})
	f.Add(uint8(2), []byte{200, 200, 200})
	f.Add(uint8(16), []byte{})
	f.Fuzz(func(t *testing.T, capacity uint8, tape []byte) {
		tr := NewTrail(int(capacity))
		for i, op := range tape {
			node := NodeID(op % 32)
			if op >= 224 { // ~1/8 of ops are gateway visits
				tr.ResetAt(node)
			} else {
				tr.Extend(node)
			}
			// Invariants after every op.
			if tr.Len() > tr.Capacity() {
				t.Fatalf("op %d: len %d > capacity %d", i, tr.Len(), tr.Capacity())
			}
			if tr.Anchored() {
				if tr.Hops() != tr.Len()-1 {
					t.Fatalf("op %d: anchored hops %d != len-1 %d", i, tr.Hops(), tr.Len()-1)
				}
				if tr.Gateway() < 0 {
					t.Fatalf("op %d: anchored but no gateway", i)
				}
			} else if tr.Hops() != -1 || tr.Gateway() != -1 {
				t.Fatalf("op %d: unanchored trail reports a route", i)
			}
			seen := map[NodeID]bool{}
			for _, u := range tr.Nodes() {
				if seen[u] {
					t.Fatalf("op %d: duplicate node %d in trail %v", i, u, tr.Nodes())
				}
				seen[u] = true
			}
			if tr.Len() > 0 && tr.Current() != tr.At(tr.Len()-1) {
				t.Fatalf("op %d: Current mismatch", i)
			}
		}
	})
}

// FuzzVisitsOps is a differential test of the dense visit memory against
// the map-backed reference in visits_ref_test.go: it interleaves Record,
// MergeFrom, MergeAll and Clone over four memories whose capacities come
// from {0, 1, 2, 32}, and requires identical Last, Len and change counts
// after every operation (see runVisitsTape). The seed corpus includes
// clumped tapes (see clumpedTape), whose repeated merges of one group
// exercise the merge-lineage path.
func FuzzVisitsOps(f *testing.F) {
	f.Add(uint8(3), []byte{1, 2, 3, 4, 5})
	f.Add(uint8(0), []byte{9, 9, 9})
	f.Add(uint8(0b11100100), []byte{0, 7, 4, 9, 1, 200, 70, 3, 133, 250, 192, 5, 255, 77, 128, 6})
	f.Add(uint8(0b01010101), []byte{0, 1, 4, 2, 8, 3, 12, 4, 134, 0, 195, 255, 211, 9, 64, 1})
	for i, capSel := range []uint8{0, 0b11111111, 0b10101010, 0b01010101, 0b00111011} {
		f.Add(capSel, clumpedTape(rng.New(uint64(i)+1), 200))
	}
	f.Fuzz(func(t *testing.T, capSel uint8, tape []byte) {
		var caps [4]int
		for i := range caps {
			caps[i] = []int{0, 1, 2, 32}[capSel>>(2*i)&3]
		}
		runVisitsTape(t, caps, tape)
	})
}

// runVisitsTape decodes tape into operations on four dense/reference
// memory pairs and fails on the first observable divergence. Each
// operation is an opcode byte and, for records, an argument byte:
//
//   - op>>6 == 0 or 1: Record into memory op&3 at a clock that advances
//     by (op>>2)&1 and is looked back (op>>3)&3 steps, so equal-step ties
//     and stale records are common. The argument picks the node: 0..191
//     map to nodes 0..63, 192..255 to sparse IDs up to 6175, well beyond
//     the range touched first.
//   - op>>6 == 2: memory op&3 merges memory (op>>2)&3 with MergeFrom, or
//     is replaced by its own Clone when the two coincide. When
//     (op>>4)&3 == 3 it is replaced by a Clone of the other instead, so
//     a copy can later meet its original.
//   - op>>6 == 3: MergeAll over the members in bitmask op&15.
//
// Besides the observable state it checks the merge lineage after every
// operation: a dirty list never outgrows its memory, memories sharing a
// token agree on every touched node in neither dirty list, and a merge
// that starts a lineage leaves its members' dirty lists empty. It returns
// how many MergeAll calls had at least two members and how many of those
// found them all sharing one lineage token.
func runVisitsTape(t *testing.T, caps [4]int, tape []byte) (merges, shared int) {
	t.Helper()
	var (
		got     [4]*Visits
		want    [4]*refVisits
		scratch MergeScratch
		refScr  refMergeScratch
		clock   int
		touched = map[NodeID]bool{}
		probes  []NodeID
	)
	for i, c := range caps {
		got[i], want[i] = NewVisits(c), newRefVisits(c)
	}
	check := func(op int, what string) {
		t.Helper()
		for i := range got {
			if got[i].Len() != want[i].Len() || got[i].Capacity() != want[i].Capacity() {
				t.Fatalf("op %d (%s): memory %d Len/Capacity %d/%d, reference %d/%d", op, what, i,
					got[i].Len(), got[i].Capacity(), want[i].Len(), want[i].Capacity())
			}
			if c := got[i].Capacity(); c > 0 && got[i].Len() > c {
				t.Fatalf("op %d (%s): memory %d holds %d > capacity %d", op, what, i, got[i].Len(), c)
			}
			for _, u := range probes {
				gs, gok := got[i].Last(u)
				ws, wok := want[i].Last(u)
				if gs != ws || gok != wok {
					t.Fatalf("op %d (%s): memory %d Last(%d) = %d,%v, reference %d,%v",
						op, what, i, u, gs, gok, ws, wok)
				}
			}
			if len(got[i].dirty) > got[i].Len() {
				t.Fatalf("op %d (%s): memory %d dirty list %d > its %d records", op, what, i,
					len(got[i].dirty), got[i].Len())
			}
		}
		for i, a := range got {
			for j, b := range got[i+1:] {
				if a.token == 0 || a.token != b.token {
					continue
				}
				dirty := map[NodeID]bool{}
				for _, m := range []*Visits{a, b} {
					for _, u := range m.dirty {
						dirty[u] = true
					}
				}
				for _, u := range probes {
					if a.at(u) != b.at(u) && !dirty[u] {
						t.Fatalf("op %d (%s): memories %d and %d share token %d but differ at clean node %d",
							op, what, i, i+1+j, a.token, u)
					}
				}
			}
		}
	}
	// Fixed probes (node 0, the first sparse ID, one far past any table)
	// plus every node the tape touches.
	probes = append(probes, 0, 64, 1<<20)
	for op := 0; op < len(tape); op++ {
		b := tape[op]
		switch b >> 6 {
		case 0, 1:
			if op+1 >= len(tape) {
				return merges, shared
			}
			op++
			arg := tape[op]
			u := NodeID(arg % 64)
			if arg >= 192 {
				u = NodeID(arg-192)*97 + 64
			}
			if !touched[u] {
				touched[u] = true
				probes = append(probes, u)
			}
			clock += int(b>>2) & 1
			step := max(clock-int(b>>3)&3, 0)
			m := b & 3
			got[m].Record(u, step)
			want[m].Record(u, step)
			check(op, "Record")
		case 2:
			dst, src := b&3, (b>>2)&3
			if dst == src || b>>4&3 == 3 {
				got[dst], want[dst] = got[src].Clone(), want[src].Clone()
				check(op, "Clone")
				continue
			}
			gc, wc := got[dst].MergeFrom(got[src]), want[dst].MergeFrom(want[src])
			if gc != wc {
				t.Fatalf("op %d: MergeFrom(%d <- %d) changed %d, reference %d", op, dst, src, gc, wc)
			}
			check(op, "MergeFrom")
		case 3:
			var gs []*Visits
			var ws []*refVisits
			var before []uint64
			for i := range got {
				if b>>i&1 != 0 {
					gs, ws = append(gs, got[i]), append(ws, want[i])
					before = append(before, got[i].token)
				}
			}
			if len(gs) >= 2 {
				merges++
				if sharesLineage(gs) {
					shared++
				}
			}
			gc, wc := scratch.MergeAll(gs), refScr.MergeAll(ws)
			if !slices.Equal(gc, wc) {
				t.Fatalf("op %d: MergeAll(%04b) changed %v, reference %v", op, b&15, gc, wc)
			}
			for _, m := range gs {
				if m.token != 0 && !slices.Contains(before, m.token) && len(m.dirty) != 0 {
					t.Fatalf("op %d: MergeAll(%04b) started a lineage with %d dirty nodes",
						op, b&15, len(m.dirty))
				}
			}
			check(op, "MergeAll")
		}
	}
	return merges, shared
}

// clumpedTape generates a runVisitsTape tape shaped like cooperating
// agents. Memories 0–2 are a clump: each round they mostly record the
// node the clump walks onto, at one step, and then re-merge; a member
// sometimes strays to another node or records a stale step. Memory 3
// wanders alone. Some rounds re-merge only part of the clump, merge one
// member with the loner before it rejoins, or replace the loner with a
// Clone of a member that then meets its original.
func clumpedTape(s *rng.Stream, rounds int) []byte {
	var tape []byte
	record := func(m, arg int, advance bool, lookback int) {
		op := byte(m) | byte(lookback)<<3
		if advance {
			op |= 1 << 2
		}
		tape = append(tape, op, byte(arg))
	}
	mergeAll := func(mask int) { tape = append(tape, 0xC0|byte(mask)) }
	const clump = 0b0111
	walk := 0
	for r := 0; r < rounds; r++ {
		walk = (walk + 1 + s.Intn(3)) % 48
		record(0, walk, true, 0)
		for m := 1; m < 3; m++ {
			switch s.Intn(6) {
			case 0:
				record(m, s.Intn(64), false, s.Intn(4))
			case 1: // sits the round out
			default:
				record(m, walk, false, 0)
			}
		}
		if s.Intn(8) == 0 {
			record(s.Intn(3), 192+s.Intn(64), false, s.Intn(4))
		}
		record(3, s.Intn(256), s.Intn(2) == 0, s.Intn(4))
		switch k := s.Intn(10); {
		case k < 6:
			mergeAll(clump)
		case k < 8:
			mergeAll(clump &^ (1 << s.Intn(3)))
		case k < 9:
			i := s.Intn(3)
			mergeAll(1<<i | 1<<3)
			record(i, walk, false, 0)
			mergeAll(clump)
		default:
			i := s.Intn(3)
			tape = append(tape, 0x80|3<<4|byte(i)<<2|3)
			record(3, s.Intn(64), false, s.Intn(4))
			mergeAll(1<<i | 1<<3)
		}
	}
	return tape
}
