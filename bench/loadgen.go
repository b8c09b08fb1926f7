package main

import (
	"bytes"
	"hash"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// requestTimeout is the latency past which a request counts as failed; a
// request the generator could not even send within it is failed unsent.
const requestTimeout = time.Second

// request is one pre-encoded HTTP request of a load schedule.
type request struct {
	path  string
	body  []byte
	key   int  // pool index of a query whose answer must not change, else -1
	batch bool // a /v1/query/batch request, timed apart from single queries
}

// arrival is one scheduled request, due at an offset from the phase start.
type arrival struct {
	due time.Duration
	req *request
}

// poissonSchedule draws independent arrivals at the rate for the duration:
// the open-loop traffic of many users who do not wait for each other.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration, pick func() *request) []arrival {
	var out []arrival
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, arrival{due: time.Duration(t * float64(time.Second)), req: pick()})
	}
	return out
}

// newClient returns a client holding exactly one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// loadResult is what one load phase measured.
type loadResult struct {
	latMs      []float64 // single queries, due time (closed loop: send) to response; failed ones read requestTimeout
	batchLatMs []float64 // batch requests, likewise
	lateMs     []float64 // open loop only: every request, due time to send
	sent       int
	failed     int
	// first holds the hash of the first body answered for each pool query;
	// mismatched counts later answers to the same query that differed.
	first      map[int]uint64
	mismatched int
	elapsed    time.Duration
}

// record books one answered or failed request.
func (p *loadResult) record(req *request, lat time.Duration, h uint64, ok bool) {
	p.sent++
	if !ok || lat > requestTimeout {
		p.failed++
		lat = requestTimeout
	}
	if req.batch {
		p.batchLatMs = append(p.batchLatMs, ms(lat))
	} else {
		p.latMs = append(p.latMs, ms(lat))
	}
	if ok && req.key >= 0 {
		if prev, seen := p.first[req.key]; !seen {
			p.first[req.key] = h
		} else if prev != h {
			p.mismatched++
		}
	}
}

// closedLoop sends stream[from:], cycling to its start when the phase
// outlasts it, on one client: each request leaves as soon as the reply to
// the previous one is in, the traffic of one caller who waits for every
// answer. Latency is timed from the send. The phase ends with the first
// request that would leave after d; closedLoop returns the index of that
// request, where the next phase picks up the stream.
func closedLoop(c *http.Client, base string, stream []*request, from int, d time.Duration) (*loadResult, int) {
	p := &loadResult{first: map[int]uint64{}}
	hash := fnv.New64a()
	start := time.Now()
	i := from
	for time.Since(start) < d {
		req := stream[i%len(stream)]
		i++
		sent := time.Now()
		h, ok := send(c, base, req, hash)
		p.record(req, time.Since(sent), h, ok)
	}
	p.elapsed = time.Since(start)
	return p, i % len(stream)
}

// openLoop sends the schedule over the clients, one sender goroutine per
// client. Senders take arrivals in order and send each at its due time or,
// when both are busy, as soon as one frees up; latency is timed from the
// due time, so a stall is charged to every request it delays.
func openLoop(clients []*http.Client, base string, sched []arrival) *loadResult {
	var next atomic.Int64
	parts := make([]loadResult, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			p.first = map[int]uint64{}
			hash := fnv.New64a()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				a := sched[i]
				due := start.Add(a.due)
				sleepUntil(due)
				sent := time.Now()
				p.lateMs = append(p.lateMs, ms(sent.Sub(due)))
				lat, h, ok := requestTimeout, uint64(0), false
				if sent.Sub(due) <= requestTimeout {
					h, ok = send(clients[c], base, a.req, hash)
					lat = time.Since(due)
				}
				p.record(a.req, lat, h, ok)
			}
		}(c)
	}
	wg.Wait()
	out := &loadResult{first: map[int]uint64{}, elapsed: time.Since(start)}
	for _, p := range parts {
		out.latMs = append(out.latMs, p.latMs...)
		out.batchLatMs = append(out.batchLatMs, p.batchLatMs...)
		out.lateMs = append(out.lateMs, p.lateMs...)
		out.sent += p.sent
		out.failed += p.failed
		out.mismatched += p.mismatched
		for k, h := range p.first {
			if prev, seen := out.first[k]; seen && prev != h {
				out.mismatched++
			}
			out.first[k] = h
		}
	}
	return out
}

// send posts one request and returns the hash of a 200 body.
func send(c *http.Client, base string, req *request, hash hash.Hash64) (uint64, bool) {
	resp, err := c.Post(base+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return 0, false
	}
	hash.Reset()
	_, err = io.Copy(hash, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return 0, false
	}
	return hash.Sum64(), true
}

// sleepUntil blocks the calling thread in nanosleep until t. The runtime's
// timers wake sub-millisecond sleeps about a millisecond late on Linux,
// which would swamp latencies of tens of microseconds; a raw nanosleep
// overshoots by tens of microseconds, and the runtime hands the sleeping
// thread's processor to other goroutines meanwhile.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
