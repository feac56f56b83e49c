package network_test

import (
	"reflect"
	"testing"
	"time"

	"aggmac/internal/core"
	"aggmac/internal/faults"
	"aggmac/internal/mac"
	"aggmac/internal/network"
	"aggmac/internal/phy"
)

// TestReleasedBuffersAreDead checks the MAC's release points. Each run is
// repeated with every released packet buffer overwritten with 0xA5: a
// buffer the MAC still reads after handing it back (a retry, a queued
// frame, a block-ACK remainder) would put those bytes on the air, fail the
// receiver's checksums and change the result. Each case also confirms it
// reached the release point it is there for.
func TestReleasedBuffersAreDead(t *testing.T) {
	twoHop := func(s mac.Scheme) func(*testing.T) any {
		return func(t *testing.T) any {
			// A 20 dB channel loses enough bundles that the exchanges retry.
			p := phy.DefaultParams()
			p.SNRdB = 20
			res := core.RunTCP(core.TCPConfig{Scheme: s, Rate: phy.Rate2600k, Hops: 2, FileBytes: 60_000, Seed: 3, Phy: &p})
			retries := 0
			for _, n := range res.Nodes {
				retries += n.MAC.Retries
			}
			if !res.Completed || retries == 0 {
				t.Fatalf("completed=%v with %d MAC retries; want a finished transfer that retried", res.Completed, retries)
			}
			return res
		}
	}
	cases := []struct {
		name string
		run  func(*testing.T) any
	}{
		{"tcp-2hop-NA", twoHop(mac.NA)},
		{"tcp-2hop-UA", twoHop(mac.UA)},
		{"tcp-2hop-BA", twoHop(mac.BA)},
		{"block-ack-partial", func(t *testing.T) any {
			// Aggregates past the coherence budget lose their aged tail, so
			// the block ACK covers only the head and the rest retries.
			res := core.RunTCP(core.TCPConfig{Scheme: mac.UA, Rate: phy.Rate650k, Hops: 1, Seed: 53,
				MaxAggBytes: 8192, BlockAck: true, FileBytes: 50_000, Deadline: 600 * time.Second})
			snd, rcv := res.Nodes[0].MAC, res.Nodes[1].MAC
			if !res.Completed || snd.Retries == 0 || rcv.AckTx == 0 || rcv.RxDropsCRC == 0 {
				t.Fatalf("no partial block ACKs: completed=%v retries=%d acks=%d crc drops=%d",
					res.Completed, snd.Retries, rcv.AckTx, rcv.RxDropsCRC)
			}
			return res
		}},
		{"crash-mesh", func(t *testing.T) any {
			res := core.RunMeshTCP(core.MeshTCPConfig{
				Scheme: mac.BA, Rate: phy.Rate2600k, Topology: core.MeshGrid,
				Nodes: 16, Flows: 3, FileBytes: 10_000, Seed: 1, Deadline: 300 * time.Second,
				Faults: &faults.Config{CrashMTBF: 10 * time.Second, CrashMTTR: 5 * time.Second},
			})
			if res.NodeCrashes == 0 {
				t.Fatal("no crashes: MAC.Reset went unexercised")
			}
			return res
		}},
		{"udp-queue-overflow", func(t *testing.T) any {
			// Bursts far above the 2-hop chain's capacity overflow the
			// sender's queue, so Enqueue refuses frames.
			res := core.RunUDP(core.UDPConfig{Scheme: mac.UA, Rate: phy.Rate2600k, Hops: 2,
				Burst: 10, Interval: 5 * time.Millisecond, Duration: 3 * time.Second, Warmup: time.Second, Seed: 1})
			if res.Nodes[0].MAC.QueueDrops == 0 {
				t.Fatal("no queue overflow: Enqueue never refused a frame")
			}
			return res
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clean := tc.run(t)
			network.SetPoisonReleased(true)
			defer network.SetPoisonReleased(false)
			if poisoned := tc.run(t); !reflect.DeepEqual(clean, poisoned) {
				t.Fatalf("result changed when released buffers were poisoned:\nclean    %+v\npoisoned %+v", clean, poisoned)
			}
		})
	}
}
