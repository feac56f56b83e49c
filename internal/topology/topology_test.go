package topology

import (
	"testing"

	"aggmac/internal/mac"
	"aggmac/internal/medium"
	"aggmac/internal/network"
	"aggmac/internal/phy"
)

func cfg(seed int64) Config {
	return Config{
		Seed: seed,
		Phy:  phy.DefaultParams(),
		OptsFor: func(i, n int) mac.Options {
			return mac.DefaultOptions(mac.BA, phy.Rate1300k)
		},
	}
}

func TestLinearBuild(t *testing.T) {
	net := NewLinear(3, cfg(1))
	if len(net.Nodes) != 4 {
		t.Fatalf("3-hop chain has %d nodes, want 4", len(net.Nodes))
	}
	if net.Sched == nil || net.Medium == nil {
		t.Fatal("incomplete network")
	}
	// Every node in one collision domain (the paper's testbed property).
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j && !net.Medium.Connected(medium.NodeID(i), medium.NodeID(j)) {
				t.Errorf("nodes %d,%d not in radio range", i, j)
			}
		}
	}
	// ...while the routes force the chain, one neighbour at a time.
	for i := 0; i < 4; i++ {
		for d := 0; d < 4; d++ {
			want, wantOK := i+1, d != i
			if d < i {
				want = i - 1
			}
			next, ok := net.Nodes[i].Route(network.NodeID(d))
			if ok != wantOK || (ok && int(next) != want) {
				t.Errorf("route %d->%d via %d (ok=%v), want via %d (ok=%v)", i, d, next, ok, want, wantOK)
			}
		}
	}
}

func TestLinearRoles(t *testing.T) {
	cases := []struct {
		i, n int
		want string
	}{
		{0, 3, "server"}, {1, 3, "relay"}, {2, 3, "client"},
		{0, 4, "server"}, {1, 4, "relay"}, {2, 4, "relay"}, {3, 4, "client"},
	}
	for _, c := range cases {
		if got := LinearRole(c.i, c.n); got != c.want {
			t.Errorf("LinearRole(%d,%d) = %q, want %q", c.i, c.n, got, c.want)
		}
	}
	if !IsRelay(1, 3) || IsRelay(0, 3) || IsRelay(2, 3) {
		t.Error("IsRelay wrong")
	}
}

func TestStarBuild(t *testing.T) {
	net := NewStar(cfg(2))
	if len(net.Nodes) != 4 {
		t.Fatalf("star has %d nodes, want 4", len(net.Nodes))
	}
	if StarRole(StarClient) != "client" || StarRole(StarCenter) != "center" || StarRole(2) != "server" {
		t.Error("star roles wrong")
	}
	if len(StarServers()) != 2 {
		t.Error("star must have two servers")
	}
}

func TestStarRoutesThroughCenter(t *testing.T) {
	net := NewStar(cfg(3))
	// A packet from server 2 to the client must be forwarded by the
	// centre (2 hops), not delivered directly.
	delivered := false
	net.Nodes[StarClient].Handle(network.ProtoUDP, func(p network.Packet) {
		delivered = true
		if p.TTL != 15 { // one forward consumed
			t.Errorf("TTL %d: route did not pass through the centre", p.TTL)
		}
	})
	net.Sched.After(0, "send", func() {
		_ = net.Nodes[2].Send(network.Packet{Proto: network.ProtoUDP, Src: 2, Dst: StarClient, Payload: []byte("x")})
	})
	net.Sched.Run()
	if !delivered {
		t.Fatal("server->client packet lost")
	}
	if net.Nodes[StarCenter].Stats().Forwarded != 1 {
		t.Fatal("centre did not forward")
	}
}

func TestLinearForwardsEndToEnd(t *testing.T) {
	net := NewLinear(3, cfg(4))
	delivered := false
	net.Nodes[3].Handle(network.ProtoUDP, func(p network.Packet) { delivered = true })
	net.Sched.After(0, "send", func() {
		_ = net.Nodes[0].Send(network.Packet{Proto: network.ProtoUDP, Src: 0, Dst: 3, Payload: []byte("x")})
	})
	net.Sched.Run()
	if !delivered {
		t.Fatal("3-hop forwarding failed")
	}
	for _, i := range []int{1, 2} {
		if net.Nodes[i].Stats().Forwarded != 1 {
			t.Errorf("relay %d forwarded %d packets, want 1", i, net.Nodes[i].Stats().Forwarded)
		}
	}
}

func TestPerNodeOptions(t *testing.T) {
	c := Config{
		Seed: 5,
		Phy:  phy.DefaultParams(),
		OptsFor: func(i, n int) mac.Options {
			s := mac.DBA
			if !IsRelay(i, n) {
				s.DelayMinFrames = 0
			}
			return mac.DefaultOptions(s, phy.Rate1300k)
		},
	}
	net := NewLinear(2, c)
	if net.Nodes[0].MAC().Opts().Scheme.DelayMinFrames != 0 {
		t.Error("server got the relay-only delay")
	}
	if net.Nodes[1].MAC().Opts().Scheme.DelayMinFrames != 3 {
		t.Error("relay missing the DBA delay")
	}
	if net.Nodes[2].MAC().Opts().Scheme.DelayMinFrames != 0 {
		t.Error("client got the relay-only delay")
	}
}
