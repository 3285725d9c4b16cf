package baseline

import (
	"slices"

	"repro/internal/routing"
)

// setRow makes node u's row in ts equal want, entry for entry, writing
// only when the two differ. A differing row is dropped and want deposited
// again with Update, so a baseline's kept tables hold exactly what building
// them afresh from its state would, and every change reaches the Meter
// through the tables' dirty list.
func setRow(ts *routing.Tables, u NodeID, want []routing.Entry) {
	if slices.Equal(ts.Entries(u), want) {
		return
	}
	ts.DropIf(u, dropAll)
	for _, e := range want {
		ts.Update(u, e)
	}
}

func dropAll(routing.Entry) bool { return true }
