package harness

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/transport"
)

// raceEnabled reports a build under the race detector, which makes
// sync.Pool, and so the chunk store, drop a quarter of what it is given.
var raceEnabled bool

// TestChunksOutliveTheirBed: the chunks one bed released serve the next. A
// second identical 4 MiB MIC-TCP transfer on a new bed, after the first
// closed its streams, takes nearly every chunk from the store the first
// bed filled.
func TestChunksOutliveTheirBed(t *testing.T) {
	if raceEnabled {
		t.Skip("the chunk store drops chunks under the race detector")
	}
	runtime.GC() // two collections empty the store: the first bed starts cold
	runtime.GC()
	var news [2]uint64
	for i := range news {
		tb, err := pairBed(SchemeMICTCP, mic.Config{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		x, err := tb.runPair(SchemeMICTCP, 0, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		x.Stream.Close()
		x.Remote.Close()
		tb.Eng.Run()
		if pl := tb.Net.ChunkPool(); pl.Gets != pl.Puts {
			t.Fatalf("bed %d: %d chunks handed out, %d back", i, pl.Gets, pl.Puts)
		}
		news[i] = tb.Net.ChunkPool().News
	}
	t.Logf("chunks allocated: %d by the first bed, %d by the second", news[0], news[1])
	if news[1]*20 > news[0] {
		t.Fatalf("the second bed allocated %d chunks, more than 5 %% of the first bed's %d", news[1], news[0])
	}
}

// TestDebugBedsShareTheStore: two beds under PoolDebug carry 1 MiB MIC-TCP
// transfers on two goroutines at once, both taking chunks from the one
// store and giving them back to it. Each receives its bytes intact, and
// once both streams closed every chunk it took is back.
func TestDebugBedsShareTheStore(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = intactTransfer(uint64(i + 1))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("bed %d: %v", i, err)
		}
	}
}

// intactTransfer sends 1 MiB of payload over MIC-TCP on a PoolDebug bed
// seeded seed, checks every byte as it arrives, closes both streams and
// checks the bed's chunks quiescent.
func intactTransfer(seed uint64) error {
	const size = 1 << 20
	tb, err := NewTestbed(SchemeMICTCP, 4, netsim.Config{Seed: seed, PoolDebug: true}, mic.Config{Seed: seed + 1}, nil)
	if err != nil {
		return err
	}
	got, bad := 0, -1
	tb.serve(SchemeMICTCP, 9, 80, func(s transport.ByteStream) {
		s.OnData(func(b []byte) {
			for i, c := range b {
				if bad < 0 && c != payloadByte(got+i) {
					bad = got + i
				}
			}
			if got += len(b); got == size {
				s.Close()
			}
		})
	})
	var dialErr error
	tb.dial(SchemeMICTCP, 2, 9, 80, 0, func(s transport.ByteStream, err error) {
		if dialErr = err; err == nil {
			s.OnClose(s.Close)
			s.Send(payload(size))
		}
	})
	tb.Eng.Run()
	pl := tb.Net.ChunkPool()
	switch {
	case dialErr != nil:
		return dialErr
	case got != size || bad >= 0:
		return fmt.Errorf("received %d of %d bytes, first wrong byte at %d", got, size, bad)
	case pl.Gets != pl.Puts:
		return fmt.Errorf("%d chunks handed out, %d back", pl.Gets, pl.Puts)
	}
	return nil
}
