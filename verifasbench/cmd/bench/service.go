package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"verifas/verifasbench/jobs"
)

// The service workload's request mix.
const (
	// settleTime is how long the client waits after a round's last
	// answer before reading the daemon's CPU clock.
	settleTime = 5 * time.Millisecond
	// roundSize is the number of requests in one round.
	roundSize = 1000
	// minRounds is the least number of rounds a run measures.
	minRounds = 2
	// variedEvery: one request in variedEvery repeats an earlier request
	// of its round with only progress_stride changed.
	variedEvery = 10
	// firstStride is the progress_stride of the run's first varied
	// request; later ones count up from it. It is far from the daemon's
	// default, so no varied request shares a key with a warm answer.
	firstStride = 1 << 20
	// restartReps is how many times set-up starts and stops a daemon
	// over the warmed store; the median CPU time of one such life counts
	// toward setup_s.
	restartReps = 3
	// popularitySeed fixes which question has which popularity rank.
	popularitySeed = 1
)

// daemon is one running verifasd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon starts verifasd with default options over the store in
// dir and waits until it answers /healthz.
func startDaemon(bin, dir string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-store-dir", dir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1") // as the harness: see main
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	// Should the harness itself be killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start verifasd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("verifasd did not become healthy within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop shuts the daemon down gracefully and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("verifasd exit: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("verifasd did not stop within 30s")
	}
}

// cpuSeconds returns the CPU time, user and system, of a daemon that has
// exited.
func (d *daemon) cpuSeconds() float64 {
	ps := d.cmd.ProcessState
	return (ps.UserTime() + ps.SystemTime()).Seconds()
}

// kill ends the daemon at once; it is a no-op once the process exited.
func (d *daemon) kill() {
	if d != nil && d.cmd.ProcessState == nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
}

// question is one (file, property) pair of the real workload.
type question struct {
	job      jobs.Job
	spec     string
	expect   string
	services map[string]bool
}

// request is one submission: a question, with progress_stride set when
// stride > 0.
type request struct {
	q      int
	stride int
}

// answer is what the daemon returned for one request.
type answer struct {
	tier    string
	submit  time.Duration
	total   time.Duration
	verdict string
	// witness is what is wrong with a violated verdict's counterexample
	// ("" when well formed), and path its kind and service sequence.
	witness, path string
	err           error
}

type wireSteps []struct {
	Service string `json:"service"`
}

type wireResult struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Verdict   string          `json:"verdict"`
	Violation json.RawMessage `json:"violation"`
	Error     string          `json:"error"`
}

// client is the one closed-loop client, with its own HTTP connection.
// With one client, requests never overlap, so the daemon's CPU time
// between two submissions is the first request's own.
type client struct {
	http *http.Client
	base string
}

func newClient(d *daemon) *client {
	return &client{base: d.base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// ask submits one request and waits for its result.
func (c *client) ask(qs []question, r request) answer {
	body := map[string]any{"spec": qs[r.q].spec, "property": qs[r.q].job.Property}
	if r.stride > 0 {
		body["options"] = map[string]any{"progress_stride": r.stride}
	}
	buf, _ := json.Marshal(body)
	start := time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		return answer{err: err}
	}
	var st wireResult
	err = decodeBody(resp, &st)
	a := answer{tier: resp.Header.Get("X-Verifas-Cache"), submit: time.Since(start)}
	if err != nil {
		a.err = fmt.Errorf("submit: %w", err)
		return a
	}
	resp, err = c.http.Get(c.base + "/v1/jobs/" + st.ID + "/result?wait=true")
	if err != nil {
		a.err = err
		return a
	}
	var res wireResult
	err = decodeBody(resp, &res)
	a.total = time.Since(start)
	if err != nil {
		a.err = fmt.Errorf("result: %w", err)
		return a
	}

	if res.State != "done" {
		a.err = fmt.Errorf("job %s ended %s: %s", res.ID, res.State, res.Error)
		return a
	}
	a.verdict = res.Verdict
	if a.verdict == "violated" {
		a.witness, a.path = wireWitness(res.Violation, qs[r.q].services)
	}
	return a
}

func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// measure sends reqs from the client on the calling goroutine, probing
// the host between requests, and returns the answers and each request's
// cost: the daemon's CPU time from just
// before its submission to just before the next request's (or, for the
// last, to settleTime after its answer). So the work a request leaves
// behind, such as the store write of a miss, counts toward it, and a
// daemon thread still running when the answer arrives has stopped, and
// its CPU time been accounted, before the clock is read again.
func measure(c *client, qs []question, reqs []request, pid int, pr *probe) ([]answer, []float64, error) {
	out := make([]answer, len(reqs))
	marks := make([]time.Duration, len(reqs)+1)
	for i, r := range reqs {
		pr.maybe()
		var err error
		if marks[i], err = processCPU(pid); err != nil {
			return nil, nil, err
		}
		out[i] = c.ask(qs, r)
	}
	time.Sleep(settleTime)
	var err error
	if marks[len(reqs)], err = processCPU(pid); err != nil {
		return nil, nil, err
	}
	costs := make([]float64, len(reqs))
	for i := range costs {
		costs[i] = ms(marks[i+1] - marks[i])
	}
	return out, costs, nil
}

// wireWitness checks a wire counterexample and returns its kind and
// service sequence. The symbolic states are left out of the path: their
// rendering is not canonical (the operands of a != may come in either
// order from one run to the next).
func wireWitness(raw json.RawMessage, services map[string]bool) (problem, path string) {
	if len(raw) == 0 {
		return "violated verdict without a counterexample", ""
	}
	var v struct {
		Kind   string    `json:"kind"`
		Prefix wireSteps `json:"prefix"`
		Cycle  wireSteps `json:"cycle"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return "undecodable counterexample: " + err.Error(), ""
	}
	names := func(s wireSteps) []string {
		out := make([]string, len(s))
		for i, x := range s {
			out[i] = x.Service
		}
		return out
	}
	prefix, cycle := names(v.Prefix), names(v.Cycle)
	path = v.Kind + ": " + strings.Join(prefix, " ") + " | " + strings.Join(cycle, " ")
	return jobs.CheckWitness(v.Kind, prefix, cycle, services), path
}

// serviceStats is the part of GET /v1/stats the benchmark reads.
type serviceStats struct {
	Service struct {
		EngineRuns int64 `json:"engine_runs"`
	} `json:"service"`
	Store struct {
		Memory *struct {
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Evictions int64 `json:"evictions"`
		} `json:"memory"`
		Disk *struct {
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Evictions int64 `json:"evictions"`
		} `json:"disk"`
	} `json:"store"`
}

// serviceCounts are the counts the benchmark takes from one daemon's
// /v1/stats.
type serviceCounts struct {
	engineRuns, memoryHits, diskHits, misses, evictions int64
}

func (s *serviceStats) counts() serviceCounts {
	return serviceCounts{s.Service.EngineRuns, s.Store.Memory.Hits, s.Store.Disk.Hits,
		s.Store.Disk.Misses, s.Store.Memory.Evictions}
}

func (t *serviceCounts) add(n serviceCounts) {
	t.engineRuns += n.engineRuns
	t.memoryHits += n.memoryHits
	t.diskHits += n.diskHits
	t.misses += n.misses
	t.evictions += n.evictions
}

func fetchStats(base string) (*serviceStats, error) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	var s serviceStats
	if err := decodeBody(resp, &s); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	if s.Store.Memory == nil || s.Store.Disk == nil {
		return nil, errors.New("/v1/stats: no memory and disk tiers")
	}
	return &s, nil
}

// runService runs the service workload. Set-up answers every real
// question once through a fresh daemon, so that the persistent store
// holds every default-option answer. One closed-loop client then sends
// whole rounds of a seeded Zipf mix of the questions, each round to a
// daemon of its own over that store, until o.seconds are spent.
func runService(o options, pr *probe) (*report, error) {
	ref, err := jobs.LoadReference()
	if err != nil {
		return nil, err
	}
	setupStart := time.Now()
	var genParse []float64
	var set jobs.Set
	var parsed []jobs.Parsed
	for begin := time.Now(); len(genParse) < setupMinReps || time.Since(begin) < setupMinTime; {
		pr.maybe()
		start := selfCPU()
		set = jobs.Real()
		if parsed, err = set.Parse(); err != nil {
			return nil, err
		}
		genParse = append(genParse, (selfCPU() - start).Seconds())
	}
	expect, err := ref.Expect(set)
	if err != nil {
		return nil, err
	}
	qs := make([]question, len(set.Jobs))
	for i, j := range set.Jobs {
		p := parsed[j.File]
		qs[i] = question{job: j, spec: set.Files[j.File].Text, expect: expect[i],
			services: jobs.TaskServices(p.File.System, p.Props[j.Property].Task)}
	}

	dir := filepath.Join(o.workDir, fmt.Sprintf("service-store-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	d, err := startDaemon(o.daemon, dir)
	if err != nil {
		return nil, err
	}
	defer func() { d.kill() }()
	var chk checker
	warmReqs := make([]request, len(qs))
	for i := range qs {
		warmReqs[i] = request{q: i}
	}
	c := newClient(d)
	defaults, _, err := measure(c, qs, warmReqs, d.cmd.Process.Pid, pr)
	c.close()
	if err != nil {
		return nil, err
	}
	for i, a := range defaults {
		if a.err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", qs[i].job.ID, a.err)
		}
		if a.verdict != qs[i].expect {
			chk.wrong++
			chk.problem("WRONG", "%s: verdict %s, reference %s", qs[i].job.ID, a.verdict, qs[i].expect)
		}
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	warm := d.cpuSeconds()

	// Each restart is the whole life of a daemon over the warm store:
	// start, open the store, answer /healthz, shut down.
	var restarts []float64
	for i := 0; i < restartReps; i++ {
		if d, err = startDaemon(o.daemon, dir); err != nil {
			return nil, err
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
		restarts = append(restarts, d.cpuSeconds())
	}
	setupS := mean(genParse) + warm + median(restarts)
	fmt.Fprintf(os.Stderr, "service: set-up CPU %.2fs (gen+parse %.3fs, warm-up daemon %.2fs, restart %.3fs), set-up wall %.2fs\n",
		setupS, mean(genParse), warm, median(restarts), time.Since(setupStart).Seconds())

	// Popularity is a fixed shuffle of the questions, the same in every
	// run and apart from what each question costs, so the varied asks
	// land on cheap and costly questions alike, as they would in traffic
	// whose popularity does not follow cost.
	rank := rand.New(rand.NewSource(popularitySeed)).Perm(len(qs))
	asks, varies := roundMix(rank)
	rng := rand.New(rand.NewSource(o.seed))
	var walls, cpus, costs, submit, rsss []float64
	byTier := map[string][]float64{}
	var total serviceCounts
	nextStride := firstStride
	begin := time.Now()
	for round := 0; round < minRounds || time.Since(begin).Seconds() < o.seconds; round++ {
		// Every round has a daemon of its own over the warm store, so
		// every round starts from the same state: the daemon's memory
		// grows with the requests it serves, and its collections grow
		// costlier with it.
		if d, err = startDaemon(o.daemon, dir); err != nil {
			return nil, err
		}
		strideBefore := nextStride
		reqs := roundRequests(rng, asks, varies, &nextStride)
		c := newClient(d)
		t0 := time.Now()
		answers, roundCosts, err := measure(c, qs, reqs, d.cmd.Process.Pid, pr)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		c.close()
		roundCPU := 0.0
		for _, x := range roundCosts {
			roundCPU += x
		}
		cpus = append(cpus, roundCPU/1000)
		costs = append(costs, roundCosts...)
		rss, err := procPeakRSSMB(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rsss = append(rsss, rss)
		stats, err := fetchStats(d.base)
		if err != nil {
			return nil, err
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
		n := stats.counts()
		total.add(n)
		if varied := int64(nextStride - strideBefore); n.engineRuns > varied {
			chk.wrong++
			chk.problem("WRONG", "%d engine runs in a round, but only %d distinct keys were missing from the warm store",
				n.engineRuns, varied)
		}
		for k, a := range answers {
			r := reqs[k]
			if a.err != nil {
				chk.attempted++
				chk.wrong++
				chk.problem("WRONG", "%s: %v", qs[r.q].job.ID, a.err)
				continue
			}
			submit = append(submit, ms(a.submit))
			byTier[a.tier] = append(byTier[a.tier], ms(a.total))
			chk.verdict(qs[r.q].job.ID, a.verdict, qs[r.q].expect, a.witness)
			if r.stride > 0 && (a.verdict != defaults[r.q].verdict || a.path != defaults[r.q].path) {
				chk.wrong++
				chk.problem("WRONG", "%s: progress_stride %d changed the answer", qs[r.q].job.ID, r.stride)
			}
		}
	}
	rounds := float64(len(walls))
	fmt.Fprintf(os.Stderr, "service: %d rounds of %d requests, round wall %v, round daemon CPU %v, engine runs %d, distinct varied keys %d\n",
		len(walls), roundSize, walls, cpus, total.engineRuns, nextStride-firstStride)

	rep := &report{Correct: chk.wrong == 0, Attempted: chk.attempted, Failed: chk.failed}
	if !o.trace {
		rep.Metrics = endToEnd(cpus, costs, median(rsss), setupS, pr)
		return rep, nil
	}
	rep.Metrics = map[string]metric{
		"service.submit_ms_p50":     {median(submit), "ms"},
		"service.hit_memory_ms_p50": {median(byTier["memory"]), "ms"},
		"service.hit_disk_ms_p50":   {median(byTier["disk"]), "ms"},
		"service.miss_ms_p50":       {median(byTier["miss"]), "ms"},
		"service.engine_runs":       {float64(total.engineRuns) / rounds, "count"},
		"store.hits_memory":         {float64(total.memoryHits) / rounds, "count"},
		"store.hits_disk":           {float64(total.diskHits) / rounds, "count"},
		"store.misses":              {float64(total.misses) / rounds, "count"},
		"store.evictions":           {float64(total.evictions) / rounds, "count"},
		"trace.wall_s":              {median(walls), "s"},
	}
	addZeros(rep.Metrics, inProcessLayers)
	return rep, nil
}

// roundMix fixes what one round asks. The question of popularity rank
// r (rank[r], from 0) is asked in proportion to 1/(r+1), Zipf with
// exponent 1; one ask in variedEvery is varied, spread over the
// questions in proportion to their repeat asks. Both are rounded by
// largest remainder, so every round asks the same multiset and the seed
// only orders it: the round's work, and the share of answers that fail
// a check, do not depend on the seed.
func roundMix(rank []int) (asks, varies []int) {
	w := make([]float64, len(rank))
	for r, q := range rank {
		w[q] = 1 / float64(r+1)
	}
	asks = apportion(w, roundSize)
	for q, c := range asks {
		w[q] = float64(max(c-1, 0))
	}
	return asks, apportion(w, roundSize/variedEvery)
}

// apportion splits total in proportion to w by largest remainder.
func apportion(w []float64, total int) []int {
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	out := make([]int, len(w))
	rem := make([]int, len(w))
	given := 0
	for i, x := range w {
		share := x * float64(total) / sum
		out[i] = int(share)
		given += out[i]
		rem[i] = i
	}
	frac := func(i int) float64 { return w[i]*float64(total)/sum - float64(out[i]) }
	sort.SliceStable(rem, func(a, b int) bool { return frac(rem[a]) > frac(rem[b]) })
	for _, i := range rem[:total-given] {
		out[i]++
	}
	return out
}

// roundRequests orders one round's multiset by the seed. The last
// varies[q] asks of question q carry a progress_stride no request of the
// run used before, so each is a key the warm store lacks.
func roundRequests(rng *rand.Rand, asks, varies []int, nextStride *int) []request {
	var reqs []request
	for q, c := range asks {
		for i := 0; i < c; i++ {
			reqs = append(reqs, request{q: q})
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	left := append([]int(nil), varies...)
	for k := len(reqs) - 1; k >= 0; k-- {
		if q := reqs[k].q; left[q] > 0 {
			left[q]--
			reqs[k].stride = *nextStride
			*nextStride++
		}
	}
	return reqs
}
