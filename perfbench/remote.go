package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ddprof/internal/minilang"
	"ddprof/internal/server"
	"ddprof/internal/telemetry"
)

// epochInterval is the daemon's epoch ticker, ddprofd's shipped
// -epoch-interval default. The threads-remote target is sized so that a
// session cuts several epochs at this interval.
const epochInterval = 100 * time.Millisecond

// queryPeriod is the open-loop generator's schedule: one query due every
// period, alternating a deps?since= query at the live session and a /metrics
// scrape. A deps?since= page only gains entries when an epoch is cut, so a
// client following a session's deltas as they appear polls once per epoch;
// each poll is paired with one scrape. The rate and the even mix are the
// benchmark's choice, not a measured client population.
const queryPeriod = epochInterval / 2

// daemon is an in-process ddprofd listening on a unix socket.
type daemon struct {
	srv    *server.Server
	reg    *telemetry.Registry
	h      http.Handler
	sock   string
	served chan error
}

// startDaemon starts a daemon with a 2-worker budget and the epoch ticker
// on, listening on a fresh socket under dir. The socket path is relative to
// keep it inside the unix-socket path limit wherever the checkout lives.
func startDaemon(dir string, id int) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sock := filepath.Join(dir, fmt.Sprintf("d%d-%d.sock", os.Getpid(), id))
	os.Remove(sock) // a stale socket from a killed run would fail the bind
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return nil, fmt.Errorf("daemon listen: %w", err)
	}
	reg := telemetry.NewRegistry()
	srv := server.New(server.Config{
		Registry:          reg,
		WorkerBudget:      threads,
		WorkersPerSession: threads,
		EpochInterval:     epochInterval,
	})
	d := &daemon{srv: srv, reg: reg, h: srv.HTTPHandler(), sock: sock, served: make(chan error, 1)}
	go func() { d.served <- srv.Serve(ln) }()
	return d, nil
}

// counters reads the daemon's lifecycle counters.
func (d *daemon) counters() sessionCounters {
	return sessionCounters{
		Started:   d.reg.Counter("server_sessions_accepted_total").Load(),
		Completed: d.reg.Counter("server_sessions_completed_total").Load(),
		Evicted:   d.reg.Counter("server_sessions_evicted_total").Load(),
		Refused:   d.reg.Counter("server_sessions_refused_total").Load(),
		Active:    uint64(d.srv.ActiveSessions()),
		Profiled: d.reg.Counter("pipeline_events_total").Load() +
			d.reg.Counter("pipeline_dup_collapsed_total").Load(),
	}
}

// stop drains the daemon and removes its socket.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	// Serve returns nil once draining, or "draining" if its goroutine only
	// got to run after Shutdown; either way it has released the listener.
	<-d.served
	os.Remove(d.sock)
	return err
}

// unretired counts sessions still in the daemon's table after their
// verdict went out (state responding or done). Called right after a client
// decoded its verdict, a nonzero count is the verdict-before-retire race.
func (d *daemon) unretired() int {
	n := 0
	for _, s := range d.srv.Sessions() {
		if s.State == "responding" || s.State == "done" {
			n++
		}
	}
	return n
}

// timingConn stamps the client side of a session: first and last write,
// and the first byte of the response.
type timingConn struct {
	net.Conn
	firstWrite, lastWrite, firstRead time.Time
}

func (t *timingConn) Write(p []byte) (int, error) {
	n, err := t.Conn.Write(p)
	now := time.Now()
	if t.firstWrite.IsZero() {
		t.firstWrite = now
	}
	t.lastWrite = now
	return n, err
}

func (t *timingConn) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	if n > 0 && t.firstRead.IsZero() {
		t.firstRead = time.Now()
	}
	return n, err
}

// sessionResult is one remote profile as the client saw it.
type sessionResult struct {
	total, stream, wait time.Duration
	// cpu is the process's CPU seconds over the same interval as total:
	// client and daemon both, as they share the process.
	cpu float64
	// firstWrite, lastWrite and firstRead are the client-side stamps the
	// stream and verdict-wait spans are cut from.
	firstWrite, lastWrite, firstRead time.Time
	events                           uint64
	unretired                        int
	races, cross                     int
}

// remoteSession profiles p through the daemon, timed from dial to decoded
// verdict, and verifies the result against ref.
func remoteSession(d *daemon, p *minilang.Program, w workload, ref *reference) (sessionResult, error) {
	var sr sessionResult
	c0, t0 := cpuTime(), time.Now()
	conn, err := server.Dial("unix:" + d.sock)
	if err != nil {
		return sr, fmt.Errorf("dial: %w", err)
	}
	defer conn.Close()
	tc := &timingConn{Conn: conn}
	rr, err := server.ProfileRemote(tc, p, server.ClientOptions{Workers: threads, Backend: w.backend, MT: w.mt})
	sr.total = time.Since(t0)
	sr.cpu = cpuTime() - c0
	sr.unretired = d.unretired()
	if err != nil {
		return sr, fmt.Errorf("remote session: %w", err)
	}
	if !tc.firstRead.IsZero() {
		sr.firstWrite, sr.lastWrite, sr.firstRead = tc.firstWrite, tc.lastWrite, tc.firstRead
		sr.stream = tc.lastWrite.Sub(tc.firstWrite)
		sr.wait = tc.firstRead.Sub(tc.lastWrite)
	}
	sr.events = rr.Events
	sr.races = races(rr.Deps)
	sr.cross = crossThread(rr.Deps)
	return sr, ref.verify(rr.Deps, p, rr.Events, w.mt)
}

// generator issues live-observatory queries on a fixed schedule (open
// loop) and times each from when it was due.
type generator struct {
	d *daemon

	mu        sync.Mutex
	latency   []float64 // from due time, every query
	deps      []float64 // service time, deps?since= queries
	metrics   []float64 // service time, /metrics scrapes
	lateMax   float64
	epochs    map[uint64]uint32 // highest epoch seen per session
	lastID    uint64
	attempted int
	failures  []error
}

func newGenerator(d *daemon) *generator {
	return &generator{d: d, epochs: make(map[uint64]uint32)}
}

// run issues queries until stop closes.
func (g *generator) run(stop <-chan struct{}) {
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * queryPeriod)
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		began := time.Now()
		var err error
		id := g.liveSession()
		if k%2 == 0 && id != 0 {
			err = g.queryDeps(id)
		} else {
			err = g.scrape()
		}
		end := time.Now()
		g.mu.Lock()
		g.attempted++
		if err != nil {
			g.failures = append(g.failures, err)
		} else {
			g.latency = append(g.latency, end.Sub(due).Seconds())
			svc := end.Sub(began).Seconds()
			if k%2 == 0 && id != 0 {
				g.deps = append(g.deps, svc)
			} else {
				g.metrics = append(g.metrics, svc)
			}
		}
		g.lateMax = max(g.lateMax, began.Sub(due).Seconds())
		g.mu.Unlock()
	}
}

// liveSession picks the newest session past its handshake (its observatory
// is attached), or the last one seen, which the daemon retains.
func (g *generator) liveSession() uint64 {
	for _, s := range g.d.srv.Sessions() {
		if s.State != "handshake" && s.ID > g.lastID {
			g.lastID = s.ID
		}
	}
	return g.lastID
}

func (g *generator) get(url string) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	g.d.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return rec, nil
}

// queryDeps asks for the dependences first observed since the last epoch
// this generator saw of the session.
func (g *generator) queryDeps(id uint64) error {
	g.mu.Lock()
	since := g.epochs[id]
	g.mu.Unlock()
	rec, err := g.get(fmt.Sprintf("/sessions/%d/deps?since=%d", id, since))
	if err != nil {
		return err
	}
	var page struct {
		Session uint64            `json:"session"`
		Epoch   uint32            `json:"epoch"`
		Deps    []json.RawMessage `json:"deps"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		return fmt.Errorf("deps page: %w", err)
	}
	if page.Session != id {
		return fmt.Errorf("deps page for session %d answered for %d", id, page.Session)
	}
	g.mu.Lock()
	g.epochs[id] = max(g.epochs[id], page.Epoch)
	g.mu.Unlock()
	return nil
}

func (g *generator) scrape() error {
	rec, err := g.get("/metrics")
	if err != nil {
		return err
	}
	if !strings.Contains(rec.Body.String(), "server_sessions_accepted_total") {
		return fmt.Errorf("/metrics lacks the session counters")
	}
	return nil
}

// discard drops the samples taken so far. Operations and their failures
// stay counted.
func (g *generator) discard() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.latency, g.deps, g.metrics, g.lateMax = nil, nil, nil, 0
	clear(g.epochs)
}

// record adds the generator's operations and metrics to rep.
func (g *generator) record(rep *report) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, err := range g.failures {
		rep.op(err)
	}
	for i := len(g.failures); i < g.attempted; i++ {
		rep.op(nil)
	}
	setTimings(rep, "query_s", g.latency)
	rep.set("obs.deps_since_s", median(g.deps), "s")
	rep.set("obs.metrics_scrape_s", median(g.metrics), "s")
	var eps []float64
	for _, e := range g.epochs {
		eps = append(eps, float64(e))
	}
	rep.set("obs.epochs", median(eps), "count")
	rep.set("gen.late_s_max", g.lateMax, "s")
}

// settleGoroutines waits until the goroutine count is back to at most
// baseline, and reports the excess if it never is.
func settleGoroutines(baseline int) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutines grew across the daemon's life: %d before, %d after drain", baseline, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runRemote measures the daemon workload: nproc-1 closed-loop clients each
// stream back-to-back sessions while one open-loop generator queries the
// live session. Set-up includes starting the daemon; only the last set-up's
// daemon serves the run.
func runRemote(opt options, rep *report) error {
	w := opt.workload
	baseline := runtime.NumGoroutine()
	var d *daemon
	id := 0
	ls, err := setupLocal(opt, rep, func() error {
		if d != nil {
			old := d
			d = nil
			if err := old.stop(); err != nil {
				return err
			}
		}
		id++
		var err error
		d, err = startDaemon(filepath.Join(".bench_build", "run"), id)
		return err
	})
	if err != nil {
		if d != nil {
			d.stop()
		}
		return err
	}

	g := newGenerator(d)
	stopGen := make(chan struct{})
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		g.run(stopGen)
	}()
	var unretired, raceCount atomic.Int64
	t := measure(opt, rep, ls.p, max(runtime.NumCPU()-1, 1), func() (sample, error) {
		sr, err := remoteSession(d, ls.p, w, ls.ref)
		unretired.Add(int64(sr.unretired))
		raceCount.Add(int64(sr.races))
		return sample{wall: sr.total.Seconds(), cpu: sr.cpu, events: sr.events}, err
	})
	close(stopGen)
	<-genDone
	g.record(rep)

	if err := d.stop(); err != nil {
		rep.check(fmt.Errorf("daemon drain: %w", err))
	}
	c := d.counters()
	rep.check(c.conserved())
	if w.mt {
		// The daemon-side access count is the multi-threaded target's check;
		// sequential targets are held to their exact digest instead. (For
		// sequential sessions the daemon's parallel pipeline reports fewer
		// accesses in its counters than the bare VM runs; see README.md.)
		rep.check(c.accounted(ls.ref.accesses))
	}
	rep.check(settleGoroutines(baseline))

	t.record(rep)
	rep.set("server.unretired_at_verdict", float64(unretired.Load()), "count")
	rep.set("server.sessions_started", float64(c.Started), "count")
	rep.set("server.sessions_completed", float64(c.Completed), "count")
	rep.set("server.sessions_evicted", float64(c.Evicted), "count")
	rep.set("server.refused", float64(c.Refused), "count")
	rep.set("mt.races", float64(raceCount.Load()), "count")
	return nil
}
