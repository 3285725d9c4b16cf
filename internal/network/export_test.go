package network

// Test helpers shared with the external network_test package, whose tests
// drive consumers of the world (routing's Meter) that this package cannot
// import.
var (
	BuildFaultWorld = buildFaultWorld
	FaultSchedules  = faultSchedules
)

// ReplayGeometry reports, for a replay world, how many records its steps
// have passed and how many of their geometry bodies a read has decoded.
func ReplayGeometry(w *World) (stepped, decoded int) {
	return w.traj.stepped, w.traj.applied
}
