package tcp

import (
	"testing"
	"time"

	"aggmac/internal/frame"
	"aggmac/internal/mac"
	"aggmac/internal/medium"
	"aggmac/internal/network"
	"aggmac/internal/phy"
	"aggmac/internal/sim"
	"aggmac/internal/udp"
)

// TestDeliveredPayloadsPassTransportChecksum backs the receive paths'
// trust in the link CRC with a lossy run. A 3-node chain at low SNR
// carries a TCP transfer one way and paced UDP the other. A hook between
// each MAC and its network node checks every TCP or UDP payload the node
// will hand to its transport handler: each must still sum to zero under
// the transport checksum that the receive paths no longer verify. The run
// must also have corrupted subframes, or it shows nothing.
func TestDeliveredPayloadsPassTransportChecksum(t *testing.T) {
	for _, scheme := range []mac.Scheme{mac.UA, mac.BA} {
		t.Run(scheme.Name(), func(t *testing.T) {
			const n = 3
			s := sim.NewScheduler(5)
			params := phy.DefaultParams()
			params.SNRdB = 13
			med := medium.New(s, params, n)
			opts := mac.DefaultOptions(scheme, phy.Rate1300k)
			chain := [][]int{{1}, {0, 2}, {1}}
			routes := network.NewRouteTable(n, func(i int) []int { return chain[i] })
			var macs []*mac.MAC
			var stacks []*Stack
			var eps []*udp.Endpoint
			checked := map[uint8]int{}
			for i := 0; i < n; i++ {
				node := network.NewNode(network.NodeID(i))
				up := node.Bind()
				m := mac.New(s, med, medium.NodeID(i), opts, func(d frame.DecodedSubframe, bc bool) {
					pkt, err := network.Decode(d.Payload)
					if err == nil && (pkt.Dst == node.ID() || pkt.Dst == network.BroadcastID) &&
						(pkt.Proto == network.ProtoTCP || pkt.Proto == network.ProtoUDP) {
						checked[pkt.Proto]++
						if network.Checksum(pkt.Payload) != 0 {
							t.Errorf("node %d: proto %d payload from %d fails its checksum", i, pkt.Proto, pkt.Src)
						}
					}
					up(d, bc)
				})
				node.AttachMAC(m)
				node.SetRouteTable(routes)
				macs = append(macs, m)
				stacks = append(stacks, NewStack(s, node, DefaultConfig()))
				eps = append(eps, udp.NewEndpoint(s, node))
			}

			var got int
			lis := stacks[n-1].Listen(80)
			lis.Setup = func(c *Conn) { c.OnData = func(b []byte) { got += len(b) } }
			s.After(0, "connect", func() {
				c := stacks[0].Connect(n-1, 80)
				c.OnEstablished = func() { _ = c.Send(pattern(200_000)) }
			})
			sink := udp.NewSink(eps[0], 9000)
			snd := &udp.Sender{Endpoint: eps[n-1], Dst: 0, SrcPort: 9001, DstPort: 9000,
				PayloadBytes: udp.PaperPayloadBytes, Interval: 20 * time.Millisecond, Burst: 1}
			s.After(0, "udp", snd.Start)
			s.RunUntil(10 * time.Second)
			snd.Stop()

			corrupted := 0
			for _, m := range macs {
				corrupted += m.Counters().RxDropsCRC
			}
			t.Logf("corrupted %d, checked TCP %d UDP %d, TCP bytes %d, UDP packets %d",
				corrupted, checked[network.ProtoTCP], checked[network.ProtoUDP], got, sink.Packets)
			if corrupted == 0 {
				t.Fatal("no subframe was corrupted: the run tests nothing")
			}
			if checked[network.ProtoTCP] == 0 || checked[network.ProtoUDP] == 0 || got == 0 || sink.Packets == 0 {
				t.Fatal("TCP or UDP delivered nothing")
			}
		})
	}
}
