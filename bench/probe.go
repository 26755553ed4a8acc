package main

import (
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was sized on shares its cores, caches and
// memory with other tenants, and its speed drifts by tens of percent
// over seconds to minutes. A fixed probe, timed between jobs while the
// workload is idle, measures that drift, and end-to-end times are
// divided by the probe's slowdown so they read as on a quiet host.
//
// No one kind of work tracks the drift: a memory walk alone over- or
// under-shoots the simulations by up to 40% depending on what the
// neighbours do. The probe therefore mixes the kinds of work the
// workloads do — random memory reads, integer compute, goroutine
// hand-offs and loopback HTTP — and averages their slowdowns. It is
// benchmark code, so no change to the repository can move it, and it
// never runs alongside the workload, so it cannot absorb a regression
// of the workload's own.
const (
	probeBytes     = 8 << 20 // twice the per-core L2 of the sizing host
	probeReads     = 1 << 20 // random reads per goroutine
	probeSteps     = 5_000_000
	probeHandoffs  = 20_000
	probeRequests  = 100
	probeMemMs     = 11.0 // each part's lower quartile on the sizing host
	probeComputeMs = 11.5
	probeHandoffMs = 11.4
	probeHTTPMs    = 3.7
)

// hostProbe owns the probe's buffer, mapped outside the Go heap so it
// does not change the collector's pacing (its pages count in RSS: a
// constant probeBytes in every peak_rss_mb), and a loopback HTTP server.
type hostProbe struct {
	mem    []byte
	buf    []uint64
	hs     *http.Server
	served chan struct{}
	url    string
	client *http.Client
}

func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		syscall.Munmap(mem)
		return nil, err
	}
	p := &hostProbe{
		mem:    mem,
		buf:    unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeBytes/8),
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String() + "/",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		hs: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte("ok"))
		})},
	}
	for i := range p.buf {
		p.buf[i] = uint64(i) // written, so every page is real memory
	}
	go func() {
		defer close(p.served)
		p.hs.Serve(ln)
	}()
	return p, nil
}

func (p *hostProbe) close() error {
	p.hs.Close()
	<-p.served
	p.client.CloseIdleConnections()
	return syscall.Munmap(p.mem)
}

// sample collects garbage, so no collector work overlaps the probe, runs
// each part and returns their mean slowdown against the sizing host
// (1 = as fast as it was there when quiet).
func (p *hostProbe) sample() (float64, error) {
	runtime.GC()
	var slow float64
	for _, part := range []struct {
		nominalMs float64
		run       func() error
	}{
		{probeMemMs, func() error { p.walk(); return nil }},
		{probeComputeMs, func() error { compute(); return nil }},
		{probeHandoffMs, func() error { handoff(); return nil }},
		{probeHTTPMs, p.requests},
	} {
		t0 := time.Now()
		if err := part.run(); err != nil {
			return 0, err
		}
		slow += ms(time.Since(t0)) / part.nominalMs
	}
	return slow / 4, nil
}

// parallel runs f on simWorkers goroutines, as the workloads use the
// cores, and keeps their results alive.
func parallel(f func(seed uint64) uint64) {
	var wg sync.WaitGroup
	sums := make([]uint64, simWorkers)
	wg.Add(simWorkers)
	for g := range sums {
		go func(g int) {
			defer wg.Done()
			sums[g] = f(uint64(g+1) * 0x9E3779B97F4A7C15)
		}(g)
	}
	wg.Wait()
	runtime.KeepAlive(sums)
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	return x ^ x<<17
}

func (p *hostProbe) walk() {
	parallel(func(x uint64) uint64 {
		var s uint64
		for i := 0; i < probeReads; i++ {
			x = xorshift(x)
			s += p.buf[x&(probeBytes/8-1)]
		}
		return s
	})
}

func compute() {
	parallel(func(x uint64) uint64 {
		for i := 0; i < probeSteps; i++ {
			x = xorshift(x)
		}
		return x
	})
}

func handoff() {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
	}()
	for i := 0; i < probeHandoffs; i++ {
		ping <- i
		<-pong
	}
	close(ping)
}

func (p *hostProbe) requests() error {
	for i := 0; i < probeRequests; i++ {
		resp, err := p.client.Get(p.url)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
