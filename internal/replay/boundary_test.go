package replay_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/netgen"
	"repro/internal/replay"
	"repro/internal/trace"
)

// TestReconstructAtAnchorBoundaries pins the off-by-one behaviour of
// anchor-based reconstruction: for anchor cadence K, steps K-1 (last
// delta before the anchor), K (the anchor itself), and K+1 (first delta
// after it) must all reconstruct bit-identically to a fresh lockstep
// simulation — at K=1 (anchor before every step), at the run endpoints,
// and across fault transitions that land next to anchors.
func TestReconstructAtAnchorBoundaries(t *testing.T) {
	for _, tc := range []struct {
		preset string
		every  int
	}{
		{"", 1},
		{"churn", 25},
		{"partition", 30},
	} {
		name := fmt.Sprintf("preset=%s/every=%d", tc.preset, tc.every)
		if tc.preset == "" {
			name = fmt.Sprintf("clean/every=%d", tc.every)
		}
		t.Run(name, func(t *testing.T) {
			const steps = 60
			meta := replay.RunMeta{
				Scenario:    "routing",
				Spec:        testSpec(),
				WorldSeed:   5,
				Seed:        9,
				Steps:       steps,
				FaultPreset: tc.preset,
				AnchorEvery: tc.every,
			}
			data, _ := recordRun(t, meta)
			lr, gotMeta := openLog(t, data)

			probes := map[int]bool{0: true, 1: true, steps - 1: true, steps: true}
			for b := tc.every; b <= steps; b += tc.every {
				for _, s := range []int{b - 1, b, b + 1} {
					if s >= 0 && s <= steps {
						probes[s] = true
					}
				}
			}
			for s := range probes {
				if err := replay.VerifyAt(lr, gotMeta, s); err != nil {
					t.Errorf("VerifyAt(%d): %v", s, err)
				}
			}

			// The world is dynamic every step, so reconstruction across an
			// anchor boundary must not stick to the anchor state: K and K+1
			// have to differ.
			atAnchor, err := replay.ReconstructAt(lr, tc.every)
			if err != nil {
				t.Fatalf("ReconstructAt(%d): %v", tc.every, err)
			}
			after, err := replay.ReconstructAt(lr, tc.every+1)
			if err != nil {
				t.Fatalf("ReconstructAt(%d): %v", tc.every+1, err)
			}
			a, _ := json.Marshal(atAnchor)
			b, _ := json.Marshal(after)
			if string(a) == string(b) {
				t.Errorf("reconstruction at step %d equals step %d: the post-anchor delta was dropped",
					tc.every, tc.every+1)
			}
		})
	}
}

// TestReconstructAtBeforeFirstAnchor pins the error path: a step before
// any anchor (negative) must fail loudly instead of returning a zero
// snapshot.
func TestReconstructAtBeforeFirstAnchor(t *testing.T) {
	meta := replay.RunMeta{
		Scenario:    "routing",
		Spec:        testSpec(),
		WorldSeed:   5,
		Seed:        9,
		Steps:       20,
		AnchorEvery: 10,
	}
	data, _ := recordRun(t, meta)
	lr, _ := openLog(t, data)
	if _, err := replay.ReconstructAt(lr, -1); err == nil {
		t.Fatal("ReconstructAt(-1) returned a snapshot from a log whose first anchor is step 0")
	}
}

// TestDeltaOutsideWorldRejected feeds replay a CRC-valid log whose one
// world delta names nodes the 300-node static mapping world does not have.
// Verification and reconstruction must both fail with trace.ErrCorrupt
// rather than skip the stray IDs and report the world intact.
func TestDeltaOutsideWorldRejected(t *testing.T) {
	meta := replay.RunMeta{Scenario: "mapping", Spec: netgen.Mapping300(), WorldSeed: 1, Seed: 1, Steps: 10, AnchorEvery: 100}
	w, err := meta.FreshWorld()
	if err != nil {
		t.Fatal(err)
	}
	anchor, err := json.Marshal(w.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	n := int32(w.N())
	for name, d := range map[string]trace.WorldDelta{
		"moved":        {Nodes: []int32{n, n + 5}, X: []float64{1, 2}, Y: []float64{3, 4}},
		"range":        {RangeNodes: []int32{n}, Ranges: []float64{5}},
		"dead":         {FaultChanged: true, Dead: []int32{2, n}},
		"down-gateway": {FaultChanged: true, DownGateways: []int32{n + 1}},
	} {
		t.Run(name, func(t *testing.T) {
			hdr, err := replay.NewLogHeader(meta)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			lw, err := trace.NewLogWriter(&buf, hdr)
			if err != nil {
				t.Fatal(err)
			}
			lw.EmitAnchor(0, anchor)
			d.Step = 1
			lw.EmitWorld(d)
			if err := lw.Close(); err != nil {
				t.Fatal(err)
			}
			lr, gotMeta := openLog(t, buf.Bytes())
			if checked, err := replay.VerifyLog(lr, gotMeta); !errors.Is(err, trace.ErrCorrupt) {
				t.Errorf("VerifyLog: checked=%d, err=%v; want an ErrCorrupt error", checked, err)
			}
			if _, err := replay.ReconstructAt(lr, 1); !errors.Is(err, trace.ErrCorrupt) {
				t.Errorf("ReconstructAt: err=%v; want an ErrCorrupt error", err)
			}
		})
	}
}
