package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/experiments"
	"aggmac/internal/frame"
	"aggmac/internal/mac"
	"aggmac/internal/medium"
	"aggmac/internal/network"
	"aggmac/internal/phy"
	"aggmac/internal/routing"
	"aggmac/internal/sim"
	"aggmac/internal/tcp"
	"aggmac/internal/topology"
	"aggmac/internal/udp"
)

// microTime is how long each call-level microbenchmark measures.
const microTime = 200 * time.Millisecond

// sink keeps measured calls' results live so the compiler cannot drop them.
var sink any

// nsPerOp times op in batches of at least a millisecond for microTime
// and returns the median nanoseconds per call across batches.
func nsPerOp(op func()) float64 {
	batch := 1
	for {
		start := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		if time.Since(start) >= time.Millisecond {
			break
		}
		batch *= 2
	}
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < microTime {
		t := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(batch))
	}
	return median(per)
}

// medianRun times op after an untimed prepare, at least reps times and
// for at least microTime, and returns the median duration.
func medianRun(reps int, prepare func(), op func()) time.Duration {
	var ds []float64
	start := time.Now()
	for len(ds) < reps || time.Since(start) < microTime {
		prepare()
		t := time.Now()
		op()
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(median(ds))
}

// allocsPerOp counts heap allocations per call of op.
func allocsPerOp(n int, op func()) float64 {
	op()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// layerBench is one layer microbenchmark: the metrics it reports.
type layerBench struct {
	layer, name string
	run         func() map[string]metric
}

// layerBenches times calls into each layer's public functions with
// inputs sized from the workload: grid side k, event-heap depth and the
// input set's seed.
func layerBenches(k, heapDepth int, set int64) []layerBench {
	params := phy.DefaultParams()
	return []layerBench{
		{"sim", "step", func() map[string]metric {
			return map[string]metric{"sim.step_ns": {schedulerStep(heapDepth), "ns"}}
		}},
		{"sim", "shard2", func() map[string]metric {
			return map[string]metric{"sim.shard2_speedup": {shard2Speedup(set), "ratio"}}
		}},
		{"medium", "tx_burst", func() map[string]metric {
			tb := medium.NewTxBench(max(k, 3), false)
			return map[string]metric{"medium.tx_burst_ns": {nsPerOp(tb.Burst), "ns"}}
		}},
		{"medium", "link_write", func() map[string]metric {
			return map[string]metric{"medium.link_write_ns": {linkWrite(k, params), "ns"}}
		}},
		{"phy", "error_prob", func() map[string]metric {
			c := phy.NewErrorCache(params)
			i := 0
			hit := nsPerOp(func() {
				i++
				sink = c.ChunkErrorProb(1500, phy.Rate1300k, int64(10000+i%8*1000), 0)
			})
			miss := nsPerOp(func() {
				i++
				sink = params.ChunkErrorProb(1500, phy.Rate1300k, int64(10000+i%4096*7))
			})
			return map[string]metric{"phy.err_hit_ns": {hit, "ns"}, "phy.err_miss_ns": {miss, "ns"}}
		}},
		{"frame", "aggregate", frameCodec},
		{"mac", "subframe", func() map[string]metric {
			return map[string]metric{"mac.subframe_ns": {macSubframe(params), "ns"}}
		}},
		{"network", "packet", func() map[string]metric {
			p := network.Packet{Proto: network.ProtoTCP, TTL: 64, Src: 1, Dst: 2, ID: 7, Payload: make([]byte, 1456)}
			return map[string]metric{"network.packet_ns": {nsPerOp(func() {
				sink, _ = network.Decode(p.Marshal())
			}), "ns"}}
		}},
		{"tcp", "segment", func() map[string]metric {
			s := tcp.Segment{SrcPort: 8000, DstPort: 80, Seq: 1, Ack: 1, Flags: tcp.FlagACK, Window: 65535,
				Payload: make([]byte, 1436)}
			return map[string]metric{"tcp.segment_ns": {nsPerOp(func() {
				sink, _ = tcp.DecodeSegment(s.Marshal())
			}), "ns"}}
		}},
		{"udp", "datagram", func() map[string]metric {
			d := udp.Datagram{SrcPort: 9000, DstPort: 9001, Payload: make([]byte, 1464)}
			return map[string]metric{"udp.datagram_ns": {nsPerOp(func() {
				sink, _ = udp.Decode(d.Marshal())
			}), "ns"}}
		}},
		{"routing", "shortest_paths", func() map[string]metric { return routingBench(k, params) }},
		{"topology", "grid", func() map[string]metric { return topologyBench(k, params) }},
	}
}

// schedulerStep times one At plus one Step on a heap held at depth.
func schedulerStep(depth int) float64 {
	s := sim.NewScheduler(1)
	rng := rand.New(rand.NewSource(1))
	nop := func() {}
	delay := func() time.Duration { return time.Duration(1+rng.Intn(10000)) * time.Microsecond }
	for i := 0; i < max(depth, 1); i++ {
		s.At(s.Now()+delay(), "bench", nop)
	}
	return nsPerOp(func() {
		s.At(s.Now()+delay(), "bench", nop)
		s.Step()
	})
}

// shard2Speedup is the serial wall time of one N=1600 grid cell over its
// wall time on the sharded engine with two shards.
func shard2Speedup(set int64) float64 {
	cfg := experiments.ScalingCell(core.MeshGrid, mac.BA, 1600, set)
	start := time.Now()
	sink = core.RunMeshTCP(cfg)
	serial := time.Since(start)
	cfg.Shards = 2
	start = time.Now()
	sink = core.RunMeshTCP(cfg)
	return serial.Seconds() / time.Since(start).Seconds()
}

// linkWrite times the medium's link-table writes on a k×k grid: each call
// cuts a link, raises it again and sets its SNR.
func linkWrite(k int, params phy.Params) float64 {
	k = max(k, 2)
	m := medium.NewUnconnected(sim.NewScheduler(1), params, k*k)
	var edges [][2]medium.NodeID
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			a := medium.NodeID(r*k + c)
			if c+1 < k {
				edges = append(edges, [2]medium.NodeID{a, a + 1})
			}
			if r+1 < k {
				edges = append(edges, [2]medium.NodeID{a, a + medium.NodeID(k)})
			}
		}
	}
	for _, e := range edges {
		m.SetConnected(e[0], e[1], true)
	}
	i := 0
	return nsPerOp(func() {
		e := edges[i%len(edges)]
		i++
		m.SetConnected(e[0], e[1], false)
		m.SetConnected(e[0], e[1], true)
		m.SetSNR(e[0], e[1], float64(20+i%5))
	}) / 3
}

func subframe(payload int, dst frame.Addr) *frame.Subframe {
	return &frame.Subframe{Duration: 100 * time.Microsecond, Addr1: dst, Addr2: frame.NodeAddr(1),
		Addr3: frame.NodeAddr(1), Payload: make([]byte, payload)}
}

// frameCodec times marshalling and decoding a full BA aggregate — two
// broadcast TCP ACK subframes and three unicast data subframes, 5116 of
// the 5120 body bytes — and counts the allocations the medium's
// marshal plus the MAC's decode make per aggregate.
func frameCodec() map[string]metric {
	agg := &frame.Aggregate{
		BroadcastRate: phy.Rate650k, UnicastRate: phy.Rate1300k,
		Broadcast: []*frame.Subframe{subframe(52, frame.Broadcast), subframe(52, frame.Broadcast)},
		Unicast: []*frame.Subframe{subframe(1624, frame.NodeAddr(2)), subframe(1624, frame.NodeAddr(2)),
			subframe(1624, frame.NodeAddr(2))},
	}
	hdr := agg.Header()
	body, spans := agg.AppendMarshal(nil, nil)
	var out frame.DecodedAggregate
	marshal := nsPerOp(func() { body, spans = agg.AppendMarshal(body[:0], spans[:0]) })
	decode := nsPerOp(func() { sink = frame.DecodeAggregateInto(&out, hdr, body) })
	allocs := allocsPerOp(1000, func() {
		b, _ := agg.AppendMarshal(make([]byte, 0, agg.Bytes()), spans[:0])
		sink = frame.DecodeAggregateInto(&out, hdr, b)
	})
	return map[string]metric{
		"frame.agg_marshal_ns": {marshal, "ns"},
		"frame.agg_decode_ns":  {decode, "ns"},
		"frame.agg_allocs":     {allocs, "count"},
	}
}

// macSubframe times the MAC path on a two-node medium: BA data subframes
// enqueued at one node and delivered at the other, per subframe.
func macSubframe(params phy.Params) float64 {
	s := sim.NewScheduler(1)
	med := medium.New(s, params, 2)
	delivered := 0
	opts := mac.DefaultOptions(mac.BA, phy.Rate1300k)
	src := mac.New(s, med, 0, opts, func(frame.DecodedSubframe, bool) {})
	mac.New(s, med, 1, opts, func(frame.DecodedSubframe, bool) { delivered++ })
	payload := make([]byte, 1436)
	const burst = 16
	ns := nsPerOp(func() {
		for i := 0; i < burst; i++ {
			src.Enqueue(mac.Outgoing{Dst: frame.NodeAddr(1), Src: frame.NodeAddr(0), Payload: payload}, false)
		}
		s.Run()
	})
	if delivered == 0 {
		panic("perfbench: MAC microbenchmark delivered nothing")
	}
	return ns / burst
}

// routingBench times the all-pairs route install on a fresh k×k grid and
// the recomputation after one link changes.
func routingBench(k int, params phy.Params) map[string]metric {
	k = max(k, 2)
	cfg := topology.MeshConfig{Config: topology.Config{Seed: 1, Phy: params, OptsFor: baOpts},
		DeferRoutes: true}
	var m *topology.Mesh
	install := medianRun(3, func() { m = topology.NewGrid(k, cfg) }, func() {
		routing.InstallShortestPaths(m.Nodes, m.Adjacency())
	})
	up := true
	recompute := medianRun(5, func() {
		up = !up
		m.Medium.SetConnected(0, 1, up)
	}, func() { sink = routing.RecomputeShortestPaths(m.Nodes, m.Adjacency()) })
	return map[string]metric{
		"routing.install_ms":   {float64(install) / 1e6, "ms"},
		"routing.recompute_ms": {float64(recompute) / 1e6, "ms"},
	}
}

// topologyBench times building a k×k grid without routes, and one
// mobility refresh of its links after every node moves a little.
func topologyBench(k int, params phy.Params) map[string]metric {
	k = max(k, 2)
	cfg := topology.MeshConfig{Config: topology.Config{Seed: 1, Phy: params, OptsFor: baOpts},
		DeferRoutes: true}
	var m *topology.Mesh
	build := medianRun(3, func() {}, func() { m = topology.NewGrid(k, cfg) })
	home := append([]topology.Point(nil), m.Pos...)
	moved := make([]topology.Point, len(home))
	rng := rand.New(rand.NewSource(1))
	for i, p := range home {
		moved[i] = topology.Point{X: p.X + 0.6*(rng.Float64()-0.5), Y: p.Y + 0.6*(rng.Float64()-0.5)}
	}
	i := 0
	update := nsPerOp(func() {
		i++
		if i%2 == 0 {
			sink = m.UpdateLinks(home)
		} else {
			sink = m.UpdateLinks(moved)
		}
	})
	return map[string]metric{
		"topology.build_ms":        {float64(build) / 1e6, "ms"},
		"topology.update_links_us": {update / 1e3, "us"},
	}
}

func baOpts(int, int) mac.Options { return mac.DefaultOptions(mac.BA, phy.Rate2600k) }

// runLayerBenches runs every layer microbenchmark, recording a span for
// each under parent.
func runLayerBenches(benches []layerBench, spans *spanLog, parent int) map[string]metric {
	out := map[string]metric{}
	for _, b := range benches {
		id := spans.open(fmt.Sprintf("%s: %s", b.layer, b.name), "layer", parent)
		for k, v := range b.run() {
			out[k] = v
		}
		spans.close(id)
	}
	return out
}
