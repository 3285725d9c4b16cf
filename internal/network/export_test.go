package network

// Test helpers shared with the external network_test package, whose tests
// drive consumers of the world (routing's Meter) that this package cannot
// import.
var (
	BuildFaultWorld = buildFaultWorld
	FaultSchedules  = faultSchedules
)
