// Package cluster is the placement layer of a multi-node ipcompd
// deployment: it decides, for every container name, which peers own it.
//
// The design leans on the protocol's statelessness. A region response is
// a deterministic function of (container bytes, dataset, region, bound),
// and refinement tokens are self-contained receipts, so any replica of a
// container can answer any request about it — including honoring a token
// minted by a different replica. Placement therefore never has to move
// state around; it is purely a routing detail (the venti stance: dumb
// ranged-read storage behind a narrow protocol).
//
// Two pieces live here, both deliberately free of I/O so they are
// trivially testable and reusable:
//
//   - Ring: a consistent-hash ring over container names with a fixed
//     count of virtual nodes per peer and R-way replication. Membership is fixed at
//     construction — production deployments pass the same -peers list to
//     every node, which is what makes every node compute identical replica
//     sets. Node failure is handled by routing-time failover, not by ring
//     mutation, so a bounced node comes back owning exactly what it owned
//     before.
//
//   - Health: a per-peer consecutive-failure breaker with probed
//     (half-open) recovery, used by the router tier in internal/server to
//     stop hammering a dead peer while still re-trying it after a cooldown.
//
// The router itself (request forwarding, failover order, counters) lives
// in internal/server, next to the handlers it wraps.
package cluster
