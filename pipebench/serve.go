package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"columbas/internal/core"
	"columbas/internal/export"
	"columbas/internal/layout"
	"columbas/internal/obs"
	"columbas/internal/server"
)

// job is what one serve-edits client saw of one request.
type job struct {
	req                     request
	code                    int // submit status
	state, cache            string
	metrics                 core.Metrics
	latency, submit, result time.Duration
	queueWait, service      time.Duration // cache misses only
	err                     error
	trace                   *obs.TraceJSON // with trace on
}

// signature is the part of a job that must repeat exactly when the same
// script is served again by a fresh server.
func (j job) signature() string {
	m := j.metrics
	m.Runtime = 0
	s := fmt.Sprintf("%d %s %s %+v", j.code, j.state, j.cache, m)
	if j.trace != nil {
		for _, sp := range j.trace.Spans {
			switch sp.Name {
			case "cache":
				s += fmt.Sprintf(" cache=%s delta=%s", sp.Labels["result"], sp.Labels["delta"])
			case "layout":
				c := sp.Counters
				s += fmt.Sprintf(" dws=%g dfb=%g hint=%g nodes=%g piv=%g",
					c["milp_delta_warm_starts"], c["milp_delta_fallbacks"], c["milp_incumbent_from_hint"],
					c["milp_nodes"], c["milp_simplex_pivots"])
			}
		}
	}
	return s
}

// session is one fresh server serving one script to its clients.
type session struct {
	jobs  [][]job // per client, in request order
	wall  time.Duration
	stats server.Stats
}

// lockedBuffer is the server's trace sink: the server serializes its
// writes, the lock orders them against the final read.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// serve runs one session: a fresh server.New behind httptest with an
// empty cache, and one closed-loop client per script entry. A client
// submits a netlist, waits on the job's event stream for the terminal
// state, reads the job resource and fetches the JSON result, then sends
// its next request.
func serve(script [][]request, traced bool) (session, error) {
	var sink *lockedBuffer
	cfg := server.Config{}
	if traced {
		sink = &lockedBuffer{}
		cfg.TraceSink = sink
	}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	s := session{jobs: make([][]job, len(script))}
	start := time.Now()
	var wg sync.WaitGroup
	for c := range script {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, rq := range script[c] {
				s.jobs[c] = append(s.jobs[c], submit(client, ts.URL, rq))
			}
		}()
	}
	wg.Wait()
	s.wall = time.Since(start)

	if err := getJSON(client, ts.URL+"/v1/stats", &s.stats); err != nil {
		return s, err
	}
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.WaitIdle(ctx); err != nil {
		return s, fmt.Errorf("server did not drain: %w", err)
	}
	if traced {
		if err := attachTraces(s.jobs, script, sink.buf.Bytes()); err != nil {
			return s, err
		}
	}
	return s, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func submit(client *http.Client, base string, rq request) job {
	j := job{req: rq}
	t0 := time.Now()
	resp, err := client.Post(base+"/v2/jobs", "text/plain", strings.NewReader(rq.Src))
	if err != nil {
		j.err = err
		return j
	}
	var doc server.JobDoc
	j.code = resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	j.submit = time.Since(t0)
	if err != nil || j.code != http.StatusAccepted {
		j.err = fmt.Errorf("submit %s: status %d: %v", doc.Name, j.code, err)
		return j
	}
	// The event stream ends with the job's terminal state event.
	resp, err = client.Get(base + doc.Links["events"])
	if err != nil {
		j.err = err
		return j
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		j.err = fmt.Errorf("events %s: %w", doc.ID, err)
		return j
	}
	if err := getJSON(client, base+doc.Links["self"], &doc); err != nil {
		j.err = err
		return j
	}
	t2 := time.Now()
	resp, err = client.Get(base + doc.Links["result"] + "?format=json")
	if err != nil {
		j.err = err
		return j
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.result = time.Since(t2)
	j.latency = time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusOK {
		j.err = fmt.Errorf("job %s (%s) result: status %d: %v %s", doc.ID, doc.Name, resp.StatusCode, err, bytes.Join(bytes.Fields(body), []byte(" ")))
		return j
	}

	j.state, j.cache = string(doc.State), doc.Cache
	if doc.Metrics != nil {
		j.metrics = *doc.Metrics
	}
	if doc.StartedAt != nil && doc.FinishedAt != nil {
		j.queueWait = doc.StartedAt.Sub(doc.CreatedAt)
		j.service = doc.FinishedAt.Sub(*doc.StartedAt)
	}
	var jd export.JSONDesign
	switch {
	case doc.State != server.JobSucceeded:
		j.err = fmt.Errorf("job %s (%s) ended %s", doc.ID, doc.Name, doc.State)
	case json.Unmarshal(body, &jd) != nil || len(jd.Modules) == 0:
		j.err = fmt.Errorf("job %s (%s): empty or malformed result (%d bytes)", doc.ID, doc.Name, len(body))
	case doc.Metrics == nil:
		j.err = fmt.Errorf("job %s (%s): succeeded without metrics", doc.ID, doc.Name)
	case rq.Resubmit && doc.Cache != "hit":
		j.err = fmt.Errorf("job %s (%s): exact resubmit missed the cache", doc.ID, doc.Name)
	}
	return j
}

// attachTraces hands each job its trace from the server's sink. Each
// client edits its own base, so the design name tells the client, and a
// client's traces arrive in its request order: the server writes a
// request's trace before the job reaches its terminal state.
func attachTraces(jobs [][]job, script [][]request, sinkData []byte) error {
	byClient := make([][]*obs.TraceJSON, len(script))
	owner := func(name string) int {
		for c, reqs := range script {
			base := strings.TrimPrefix(strings.SplitN(reqs[0].Src, "\n", 2)[0], "design ")
			if name == base || strings.HasPrefix(name, base+"-e") {
				return c
			}
		}
		return -1
	}
	for _, line := range bytes.Split(bytes.TrimSpace(sinkData), []byte("\n")) {
		var t obs.TraceJSON
		if err := json.Unmarshal(line, &t); err != nil {
			return fmt.Errorf("trace sink: %w", err)
		}
		c := owner(t.Name)
		if c < 0 {
			return fmt.Errorf("trace sink: design %q belongs to no client", t.Name)
		}
		byClient[c] = append(byClient[c], &t)
	}
	for c := range jobs {
		if len(byClient[c]) != len(jobs[c]) {
			return fmt.Errorf("client %d: %d traces for %d requests", c, len(byClient[c]), len(jobs[c]))
		}
		for i := range jobs[c] {
			jobs[c][i].trace = byClient[c][i]
		}
	}
	return nil
}

// chipObjective is eq. 13 with the default weights evaluated on what a
// client receives — the chip's width and height and L_f — because the
// job resource carries no layout plan to evaluate it on.
func chipObjective(m core.Metrics) float64 {
	o := layout.DefaultOptions()
	return o.Alpha*m.WidthMM + o.Beta*m.HeightMM + o.Gamma*math.Max(m.WidthMM, m.HeightMM) + o.Kappa*m.FlowMM
}

// runServe drives serve-edits. Each session gets a fresh server and an
// empty cache; session i serves the script of index i: the same chains
// as every other session, in another order and with other re-submits.
// Script 0 is always served twice and must give the
// same outcome request by request: without trace the run ends with the
// repeat, with trace the repeat comes second and is traced, and the pair
// prices the tracing. With trace on, the metrics come from the traced
// sessions.
func runServe(w io.Writer, z sizes, seed int64, seconds float64, trace bool, rep *report) {
	start := time.Now()
	first, ok := serveChecked(w, z, seed, 0, false, rep)
	if !ok {
		return
	}
	sessions := []session{first}
	var twin session
	if trace {
		if twin, ok = serveChecked(w, z, seed, 0, true, rep); !ok {
			return
		}
		compareSessions(w, first, twin, rep)
		sessions = []session{twin}
	}
	// Without trace the repeat of script 0 closes the run, so its time
	// is kept free.
	reserve := first.wall.Seconds()
	if !trace {
		reserve *= 2
	}
	for i := 1; time.Since(start).Seconds()+reserve < seconds; i++ {
		s, ok := serveChecked(w, z, seed, i, trace, rep)
		if !ok {
			return
		}
		sessions = append(sessions, s)
	}
	if !trace {
		again, ok := serveChecked(w, z, seed, 0, false, rep)
		if !ok {
			return
		}
		compareSessions(w, first, again, rep)
		sessions = append(sessions, again)
	}

	var lat, synth, walls []float64
	for _, s := range sessions {
		walls = append(walls, s.wall.Seconds())
		for _, cj := range s.jobs {
			for _, j := range cj {
				lat = append(lat, ms(j.latency))
				if j.cache == "miss" {
					synth = append(synth, j.service.Seconds())
				}
			}
		}
	}
	total := 0.0
	for _, x := range walls {
		total += x
	}
	p50, _ := percentile(lat, 50)
	p90, above := percentile(lat, 90)
	// Quality is taken over the distinct designs of script 0, which the
	// run's seed only reorders.
	var objs, areas, flows []float64
	inlets := 0
	seen := map[string]bool{}
	for _, cj := range first.jobs {
		for _, j := range cj {
			if seen[j.req.Src] {
				continue
			}
			seen[j.req.Src] = true
			objs = append(objs, chipObjective(j.metrics))
			areas = append(areas, j.metrics.WidthMM*j.metrics.HeightMM)
			flows = append(flows, j.metrics.FlowMM)
			inlets += j.metrics.CtrlInlets
		}
	}
	fmt.Fprintf(w, "sessions %d, jobs %d (%d solved), job_ms_p90 has %d sample(s) above it\n",
		len(walls), len(lat), len(synth), above)
	fmt.Fprintf(w, "script 0 digest %s\n", digestJobs(sessions[0]))
	rep.set("synth_s_geomean", geomean(synth))
	rep.setSpread("suite_s", median(walls), spread(walls))
	rep.set("job_ms_p50", p50)
	rep.set("job_ms_p90", p90)
	rep.set("jobs_per_s", float64(len(lat))/total)
	rep.set("objective_geomean", geomean(objs))
	rep.set("chip_area_mm2_geomean", geomean(areas))
	rep.set("flow_mm_geomean", geomean(flows))
	rep.set("ctrl_inlets_total", float64(inlets))
	if trace {
		serveLayers(w, sessions, first, twin, rep)
	}
}

// digestJobs hashes a session's per-request signatures, so that two runs
// with one seed can be compared for exact repetition.
func digestJobs(s session) string {
	h := sha256.New()
	for c, cj := range s.jobs {
		for _, j := range cj {
			fmt.Fprintf(h, "%d %s\n", c, j.signature())
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// serveChecked serves the script of one session index, counts its
// requests and failures, and logs what the session cost.
func serveChecked(w io.Writer, z sizes, seed int64, index int, traced bool, rep *report) (session, bool) {
	s, err := serve(z.serveScript(seed, index), traced)
	c, so := s.stats.Cache, s.stats.Solver
	fmt.Fprintf(w, "session %d traced=%t: %.3f s, cache %d hit / %d miss, similarity %d hit, delta %d warm / %d fallback, %d pivots\n",
		index, traced, s.wall.Seconds(), c.Hits, c.Misses, c.SimilarityHits, so.DeltaWarmStarts, so.DeltaFallbacks, so.SimplexPivots)
	for _, cj := range s.jobs {
		for _, j := range cj {
			rep.attempted++
			if j.err != nil {
				rep.fail(w, j.err)
			}
		}
	}
	if err != nil {
		rep.fail(w, err)
		return s, false
	}
	// Every cache hit must return the metrics of the miss that filled it.
	filled := map[string]core.Metrics{}
	for _, cj := range s.jobs {
		for _, j := range cj {
			if j.cache == "miss" {
				filled[j.req.Src] = j.metrics
			}
		}
	}
	for _, cj := range s.jobs {
		for _, j := range cj {
			if m, ok := filled[j.req.Src]; j.cache == "hit" && (!ok || m != j.metrics) {
				rep.fail(w, fmt.Errorf("cache hit for %s returned %+v, its miss gave %+v", j.metrics.Name, j.metrics, m))
			}
		}
	}
	return s, true
}

// compareSessions fails the run when serving the same script twice did
// not give the same per-request outcomes and the same server counters:
// a difference means the work depends on timing.
func compareSessions(w io.Writer, a, b session, rep *report) {
	for c := range a.jobs {
		if len(a.jobs[c]) != len(b.jobs[c]) {
			rep.fail(w, fmt.Errorf("client %d: %d vs %d requests on replay", c, len(a.jobs[c]), len(b.jobs[c])))
			continue
		}
		for i := range a.jobs[c] {
			ja, jb := a.jobs[c][i], b.jobs[c][i]
			jb.trace, ja.trace = nil, nil // the untraced side has none
			if ja.signature() != jb.signature() {
				rep.fail(w, fmt.Errorf("client %d request %d not reproduced: %s vs %s", c, i, ja.signature(), jb.signature()))
			}
		}
	}
	ca, cb := a.stats.Cache, b.stats.Cache
	sa, sb := a.stats.Solver, b.stats.Solver
	if ca.Hits != cb.Hits || ca.Misses != cb.Misses || ca.SimilarityHits != cb.SimilarityHits ||
		sa.DeltaWarmStarts != sb.DeltaWarmStarts || sa.DeltaFallbacks != sb.DeltaFallbacks ||
		sa.IncumbentFromHint != sb.IncumbentFromHint || sa.SimplexPivots != sb.SimplexPivots {
		rep.fail(w, fmt.Errorf("server counters not reproduced: cache %+v solver %+v vs cache %+v solver %+v", ca, sa, cb, sb))
	}
}

// serveLayers reports the per-layer metrics of serve-edits: server times
// as medians over the traced requests, and the counters of script 0's
// traced session, read from the server's own per-request traces and
// /v1/stats.
func serveLayers(w io.Writer, sessions []session, untraced, traced session, rep *report) {
	var submitMS, waitMS, serviceMS, resultMS []float64
	for _, s := range sessions {
		for _, cj := range s.jobs {
			for _, j := range cj {
				submitMS = append(submitMS, ms(j.submit))
				resultMS = append(resultMS, ms(j.result))
				if j.cache == "miss" {
					waitMS = append(waitMS, ms(j.queueWait))
					serviceMS = append(serviceMS, ms(j.service))
				}
			}
		}
	}
	rep.layer("server.submit_ms", median(submitMS))
	rep.layer("server.queue_wait_ms", median(waitMS))
	rep.layer("server.service_ms", median(serviceMS))
	rep.layer("server.result_ms", median(resultMS))

	st := traced.stats
	rep.layer("server.cache_hit_ratio", ratio(float64(st.Cache.Hits), float64(st.Cache.Hits+st.Cache.Misses)))
	rep.layer("server.similarity_hit_ratio", ratio(float64(st.Cache.SimilarityHits),
		float64(st.Cache.SimilarityHits+st.Cache.SimilarityMisses)))
	rep.layer("server.shed", float64(st.Admission.ShedQueueFull+st.Admission.ShedDeadline))
	rep.layer("milp.delta_warm_starts", float64(st.Solver.DeltaWarmStarts))
	rep.layer("milp.delta_fallback_ratio", ratio(float64(st.Solver.DeltaFallbacks),
		float64(st.Solver.DeltaFallbacks+st.Solver.DeltaWarmStarts)))
	rep.layer("milp.incumbent_from_hint", float64(st.Solver.IncumbentFromHint))

	// Pipeline layers as the server's traces saw them, summed over the
	// solved requests of script 0.
	sum := map[string]float64{}
	for _, cj := range traced.jobs {
		for _, j := range cj {
			for _, sp := range j.trace.Spans {
				c := sp.Counters
				switch sp.Name {
				case "planarize":
					sum["planar.planarize_ms"] += sp.WallMS
					sum["planar.switches_added"] += c["switches_added"]
				case "layout":
					for _, ch := range sp.Spans {
						if ch.Name == "greedy seed" {
							sum["layout.seed_ms"] += ch.WallMS
						} else if strings.HasPrefix(ch.Name, "milp round") {
							sum["layout.milp_ms"] += ch.WallMS
						}
					}
					sum["layout.rounds"] += c["sep_rounds"]
					sum["layout.binaries"] += c["binaries"]
					sum["layout.rows"] += c["rows"]
					sum["milp.nodes"] += c["milp_nodes"]
					sum["milp.lp_solves"] += c["milp_lp_solves"]
					sum["milp.cuts_added"] += c["milp_cuts_added"]
					sum["milp.bounds_tightened"] += c["milp_bounds_tightened"]
					sum["milp.incumbent_updates"] += c["milp_incumbent_updates"]
					sum["milp.rounding_attempts"] += c["milp_rounding_attempts"]
					sum["milp.rounding_hits"] += c["milp_rounding_hits"]
					sum["lp.pivots"] += c["milp_simplex_pivots"]
					sum["lp.warm_starts"] += c["milp_warm_starts"]
					sum["lp.refactorizations"] += c["milp_refactorizations"]
					sum["lp.sparse_refactorizations"] += c["milp_sparse_refactorizations"]
					sum["lp.fill_in"] += c["milp_fill_in"]
					sum["lp.dense_fallbacks"] += c["milp_dense_fallbacks"]
					if sp.Labels["seed_only"] == "true" {
						sum["layout.seed_only"]++
					}
				case "validate":
					sum["validate.validate_ms"] += sp.WallMS
					sum["validate.ctrl_channels"] += c["ctrl_channels"]
					for _, ch := range sp.Spans {
						if ch.Name == "mux synthesis" {
							sum["validate.mux_ms"] += ch.WallMS
						}
					}
				case "drc":
					sum["drc.check_ms"] += sp.WallMS
					sum["drc.rules_checked"] += c["rules_checked"]
				}
			}
		}
	}
	for _, name := range []string{
		"planar.planarize_ms", "planar.switches_added", "layout.seed_ms", "layout.milp_ms",
		"layout.rounds", "layout.binaries", "layout.rows", "layout.seed_only",
		"milp.nodes", "milp.lp_solves", "milp.cuts_added", "milp.bounds_tightened", "milp.incumbent_updates",
		"lp.pivots", "lp.refactorizations", "lp.sparse_refactorizations", "lp.fill_in", "lp.dense_fallbacks",
		"validate.validate_ms", "validate.mux_ms", "validate.ctrl_channels", "drc.check_ms", "drc.rules_checked",
	} {
		rep.layer(name, sum[name])
	}
	rep.layer("milp.rounding_hit_ratio", ratio(sum["milp.rounding_hits"], sum["milp.rounding_attempts"]))
	rep.layer("lp.warm_start_ratio", ratio(sum["lp.warm_starts"], sum["milp.lp_solves"]))
	over := 100 * ratio(traced.wall.Seconds()-untraced.wall.Seconds(), untraced.wall.Seconds())
	rep.layer("trace.overhead_pct", over)
	fmt.Fprintf(w, "script 0 traced %.3f s vs untraced %.3f s: tracing overhead %.2f%%\n",
		traced.wall.Seconds(), untraced.wall.Seconds(), over)
}
