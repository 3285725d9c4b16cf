package main

import (
	"math"

	agentmesh "repro"
	"repro/internal/core"
	"repro/internal/stats"
)

// pinnedDigests holds each workload's reference-batch digest at
// defaultSeed and full size; the benchmark prints the digest it got on
// standard error. A change that alters any result bit of a workload
// changes its digest; update the pin only for an intended change of
// results.
var pinnedDigests = map[string]uint64{
	"routing_fig8_live":          0x529e550ede4361a7,
	"mapping_fig5_super40":       0x38675d958dbe5245,
	"routing_fig11_churn_cached": 0x6639d69f9d456e8b,
	"binlog_fig8_record_verify":  0x1da65665f3d8e35e,
}

// checkRouting digests a routing batch and checks its invariants. A broken
// invariant fails every run of the batch: the aggregate cannot say which
// run broke it.
func checkRouting(agg agentmesh.RoutingBatch, runs, steps int) batchResult {
	b := batchResult{runs: runs, digest: digestRouting(agg)}
	if !routingBatchOK(agg, runs, steps) {
		b.failed = runs
	}
	return b
}

// routingBatchOK: every connectivity value lies in [0,1], and end-to-end
// connectivity never exceeds the physical upper bound. The aggregate keeps
// per-step curves only as means over runs, so the bound is checked on the
// measurement-window means, which it implies.
func routingBatchOK(agg agentmesh.RoutingBatch, runs, steps int) bool {
	if agg.Runs != runs || len(agg.Means) != runs ||
		len(agg.AvgSeries) != steps || len(agg.AvgIdeal) != steps {
		return false
	}
	if !inUnit(agg.Means) || !inUnit(agg.AvgSeries) || !inUnit(agg.AvgIdeal) ||
		!inUnit([]float64{agg.EndToEnd.Min, agg.EndToEnd.Max}) {
		return false
	}
	ideal := stats.WindowMean(agg.AvgIdeal, steps/2, steps)
	return agg.EndToEnd.Mean <= ideal+1e-9
}

// routingResultOK checks one run's series: every value in [0,1], and
// end-to-end connectivity at most the physical upper bound at every step.
func routingResultOK(res agentmesh.RoutingResult, steps int) bool {
	if len(res.Connectivity) != steps || len(res.EndToEnd) != steps || len(res.Ideal) != steps {
		return false
	}
	if !inUnit(res.Connectivity) || !inUnit(res.EndToEnd) || !inUnit(res.Ideal) {
		return false
	}
	for t := range res.EndToEnd {
		if res.EndToEnd[t] > res.Ideal[t] {
			return false
		}
	}
	return true
}

// checkMapping digests a mapping batch; every run must finish and every
// knowledge curve must lie in [0,1].
func checkMapping(agg agentmesh.MappingBatch, runs int) batchResult {
	b := batchResult{runs: runs, digest: digestMapping(agg), failed: runs - agg.Completed}
	if agg.Runs != runs || !inUnit(agg.AvgCurve) || !inUnit(agg.AvgMinCurve) {
		b.failed = runs
	}
	return b
}

func inUnit(xs []float64) bool {
	for _, x := range xs {
		if !(x >= 0 && x <= 1) {
			return false
		}
	}
	return true
}

// digest is FNV-1a over 64-bit words: the float64 bits of results and the
// values of counts.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) word(v uint64) {
	for i := 0; i < 8; i++ {
		*d ^= digest(v & 0xff)
		*d *= 1099511628211
		v >>= 8
	}
}

func (d *digest) floats(xs ...float64) {
	d.word(uint64(len(xs)))
	for _, x := range xs {
		d.word(math.Float64bits(x))
	}
}

func (d *digest) ints(xs ...int) {
	d.word(uint64(len(xs)))
	for _, x := range xs {
		d.word(uint64(x))
	}
}

func (d *digest) summary(s stats.Summary) {
	d.ints(s.N)
	d.floats(s.Mean, s.Std, s.Min, s.Max, s.Median, s.P25, s.P75, s.CI)
}

func (d *digest) overhead(o core.Overhead) {
	d.ints(o.Moves, o.Meetings, o.TopoRecordsReceived, o.VisitRecordsReceived,
		o.TrailAdoptions, o.RouteDeposits, o.MarksLeft)
}

func digestRouting(agg agentmesh.RoutingBatch) uint64 {
	d := newDigest()
	d.ints(agg.Runs, agg.Recovered, agg.Censored, agg.Stranded)
	d.floats(agg.Means...)
	d.floats(agg.AvgSeries...)
	d.floats(agg.AvgIdeal...)
	d.floats(agg.Stability, agg.MeanStaleness)
	for _, s := range []stats.Summary{agg.Mean, agg.EndToEnd, agg.Reconv, agg.Floor, agg.ReconvE2E, agg.FloorE2E} {
		d.summary(s)
	}
	d.overhead(agg.Overhead)
	return uint64(d)
}

func digestMapping(agg agentmesh.MappingBatch) uint64 {
	d := newDigest()
	d.ints(agg.Runs, agg.Completed, agg.Stranded)
	d.ints(agg.FinishTimes...)
	d.summary(agg.Finish)
	d.floats(agg.AvgCurve...)
	d.floats(agg.AvgMinCurve...)
	d.overhead(agg.Overhead)
	return uint64(d)
}

// digestBinlog covers the recorded run's result series, every byte of its
// log, and the number of steps verification checked.
func digestBinlog(res agentmesh.RoutingResult, log []byte, checked int) uint64 {
	d := newDigest()
	d.floats(res.Connectivity...)
	d.floats(res.EndToEnd...)
	d.floats(res.Ideal...)
	d.floats(res.Staleness...)
	d.floats(res.Mean, res.Std, res.MeanEndToEnd, res.MeanStaleness)
	d.overhead(res.Overhead)
	d.ints(len(log), checked)
	for _, b := range log {
		d ^= digest(b)
		d *= 1099511628211
	}
	return uint64(d)
}
