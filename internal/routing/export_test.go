package routing

import "repro/internal/network"

// RefereeMeasure is the scratch referee's measurement of ts over w at
// step, for the external tests of this package.
func RefereeMeasure(w *network.World, ts *Tables, step int) Measurement {
	return scratchQuad(w, ts, new(Scratch), step)
}
