// Command mictrace records a complete anonymous exchange and dumps the
// packet capture — the simulator's tcpdump. Useful for eyeballing exactly
// what each switch observes under MIC.
//
// Example:
//
//	mictrace -node core1 -out /tmp/core1.pcap
//	mictrace -node edge1_1          # text dump to stdout
//	mictrace -node edge1_1 -seed 2  # another draw of paths, addresses and slices
package main

import (
	"flag"
	"fmt"
	"os"

	"mic/internal/harness"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/trace"
)

func main() {
	var (
		node  = flag.String("node", "", "switch to tap (empty = all switches)")
		out   = flag.String("out", "", "write pcap here (empty = text to stdout)")
		size  = flag.Int("size", 20000, "bytes to transfer")
		mns   = flag.Int("mns", 3, "Mimic Nodes")
		limit = flag.Int("limit", 2000, "max captured events")
		seed  = flag.Uint64("seed", 1, "RNG seed (the network's and the controller's)")
	)
	flag.Parse()

	rec, err := capture(*node, *size, *mns, *limit, *seed)
	if err != nil {
		fail(err)
	}

	if *out == "" {
		fmt.Print(rec.Text())
		if rec.Truncated() > 0 {
			fmt.Fprintf(os.Stderr, "(%d events beyond -limit dropped)\n", rec.Truncated())
		}
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := rec.WritePcap(f); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %d events to %s\n", rec.Len(), *out)
}

// capture runs one echoed MIC transfer h0 -> h15 on the paper's testbed,
// seeded seed, and returns what the tapped switch (every switch when node
// is empty) saw.
func capture(node string, size, mns, limit int, seed uint64) (*trace.Recorder, error) {
	tb, err := harness.NewTestbed(harness.SchemeMICTCP, 4, netsim.Config{Seed: seed}, mic.Config{MNs: mns, Seed: seed}, nil)
	if err != nil {
		return nil, err
	}
	g, stacks := tb.Graph, tb.Stacks
	rec := trace.New(tb.Net, limit)
	if node == "" {
		rec.AttachAllSwitches()
	} else {
		found := false
		for _, sid := range g.Switches() {
			if g.Node(sid).Name == node {
				rec.Attach(sid)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("mictrace: no switch named %q", node)
		}
	}

	mic.Listen(stacks[15], 80, false, func(s *mic.Stream) {
		s.OnData(func(b []byte) { s.Send(b[:min(len(b), 100)]) })
	})
	var dialErr error
	client := mic.NewClient(stacks[0], tb.MC)
	client.Dial(stacks[15].Host.IP.String(), 80, func(s *mic.Stream, err error) {
		if err != nil {
			dialErr = err
			return
		}
		// Consume the echo: a stream with no receiver never acknowledges,
		// and the responder would retransmit forever.
		s.OnData(func([]byte) {})
		s.Send(make([]byte, size))
	})
	tb.Run(0)
	return rec, dialErr
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
