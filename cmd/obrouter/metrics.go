// Prometheus text exposition for the router: the obarch_cluster_*
// family. Same conventions as obarchd's /metrics — counters and gauges
// rendered from atomic sources, histograms on the shared two-per-decade
// bucket ladder — so one dashboard speaks both tiers.
package main

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// promBounds is the fixed bucket ladder (seconds), matching obarchd's.
var promBounds = []float64{
	10e-6, 50e-6, 100e-6, 500e-6,
	1e-3, 5e-3, 10e-3, 50e-3, 100e-3, 500e-3,
	1, 5, 10,
}

func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func writeCounter(b *strings.Builder, name, help string, v uint64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func writeGauge(b *strings.Builder, name, help string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

func writeHistogram(b *strings.Builder, name, help string, h stats.Histogram) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, le := range promBounds {
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", le), h.CumulativeLE(int64(le*1e9)))
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	fmt.Fprintf(b, "%s_sum %g\n", name, h.ApproxSumNS()/1e9)
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
}

// nodeCounter renders one per-node counter family, labelled by the
// node's obwire address.
func nodeCounter(b *strings.Builder, name, help string, rows []cluster.NodeStats, get func(cluster.NodeStats) uint64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for _, r := range rows {
		fmt.Fprintf(b, "%s{node=%q} %d\n", name, promEscape(r.BinAddr), get(r))
	}
}

// handleMetrics is GET /metrics: the cluster-level routing counters,
// per-node health and failover families, and the routed-send latency
// histogram.
func (s *routerServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.r.Stats()
	var b strings.Builder

	writeCounter(&b, "obarch_cluster_sends_total", "Sends routed by the front tier.", st.Sends)
	writeCounter(&b, "obarch_cluster_failovers_refusal_total", "Sends failed over after an in-band refusal (overload or shed).", st.FailoversRefusal)
	writeCounter(&b, "obarch_cluster_failovers_transport_total", "Sends failed over after a transport error.", st.FailoversTransport)
	writeCounter(&b, "obarch_cluster_exhausted_total", "Sends whose failover budget ran out; the last refusal went to the client.", st.Exhausted)
	writeCounter(&b, "obarch_cluster_no_backend_total", "Sends refused because no routable backend existed.", st.NoBackend)

	writeGauge(&b, "obarch_cluster_nodes", "Nodes in the membership.", float64(len(st.Nodes)))
	writeGauge(&b, "obarch_cluster_routable", "Nodes currently routable (healthy or suspect, not draining).", float64(st.Routable))
	quorum := 0.0
	if st.Quorum {
		quorum = 1
	}
	writeGauge(&b, "obarch_cluster_quorum", "1 while a majority of backends is routable.", quorum)
	ready := 0.0
	if st.Quorum && !s.draining.Load() {
		ready = 1
	}
	writeGauge(&b, "obarch_cluster_ready", "1 while /readyz answers 200.", ready)

	// Per-node health: the state as a labelled enum gauge (one series
	// per node per state, the active one 1), plus depth and counters.
	fmt.Fprintf(&b, "# HELP obarch_cluster_node_state Node health state (1 on the active series).\n# TYPE obarch_cluster_node_state gauge\n")
	for _, r := range st.Nodes {
		for _, state := range []string{"healthy", "suspect", "down", "probing"} {
			v := 0
			if r.State == state {
				v = 1
			}
			fmt.Fprintf(&b, "obarch_cluster_node_state{node=%q,state=%q} %d\n", promEscape(r.BinAddr), state, v)
		}
	}
	fmt.Fprintf(&b, "# HELP obarch_cluster_node_queue_depth Last polled backlog per node (queued + in flight).\n# TYPE obarch_cluster_node_queue_depth gauge\n")
	for _, r := range st.Nodes {
		fmt.Fprintf(&b, "obarch_cluster_node_queue_depth{node=%q} %d\n", promEscape(r.BinAddr), r.QueueDepth)
	}
	fmt.Fprintf(&b, "# HELP obarch_cluster_node_outstanding Router-side in-flight sends per node.\n# TYPE obarch_cluster_node_outstanding gauge\n")
	for _, r := range st.Nodes {
		fmt.Fprintf(&b, "obarch_cluster_node_outstanding{node=%q} %d\n", promEscape(r.BinAddr), r.Outstanding)
	}
	nodeCounter(&b, "obarch_cluster_node_forwards_total", "Send attempts dispatched to the node.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.Forwards })
	nodeCounter(&b, "obarch_cluster_node_completed_total", "Sends the node executed (success or machine error).", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.Completed })
	nodeCounter(&b, "obarch_cluster_node_rejected_total", "Sends the node refused at admission.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.Rejected })
	nodeCounter(&b, "obarch_cluster_node_shed_total", "Sends the node shed after queue expiry.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.Shed })
	nodeCounter(&b, "obarch_cluster_node_transport_errors_total", "Send attempts lost to connection errors.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.TransportErrs })
	nodeCounter(&b, "obarch_cluster_node_breaker_opens_total", "Outages: circuit-breaker openings from healthy or suspect.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.BreakerOpens })
	nodeCounter(&b, "obarch_cluster_node_breaker_rearms_total", "Failed half-open probes that re-armed an open breaker.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.BreakerRearms })
	nodeCounter(&b, "obarch_cluster_node_probes_total", "Half-open probes attempted.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.Probes })
	nodeCounter(&b, "obarch_cluster_node_recoveries_total", "Breaker closings via a successful probe.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.Recoveries })
	nodeCounter(&b, "obarch_cluster_node_poll_failures_total", "Health polls that failed or were refused.", st.Nodes,
		func(r cluster.NodeStats) uint64 { return r.PollFails })

	writeHistogram(&b, "obarch_cluster_send_seconds", "Whole routed send: candidate selection, obwire round trips, failovers.", s.sendLat.Snapshot())

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}
