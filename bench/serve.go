package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"exlengine/internal/engine"
	"exlengine/internal/obs"
	"exlengine/internal/store"
	"exlengine/internal/store/durable"
	"exlengine/server"
)

// serveEnv is the HTTP server under test, on a loopback listener in this
// process, with durable tenants under dataDir.
type serveEnv struct {
	srv     *server.Server
	baseURL string
	dataDir string
	served  chan error
}

func startServer(dataDir string) (*serveEnv, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{
		srv:     server.New(server.Config{DataDir: dataDir}),
		baseURL: "http://" + l.Addr().String(),
		dataDir: dataDir,
		served:  make(chan error, 1),
	}
	go func() { env.served <- env.srv.Serve(l) }()
	return env, nil
}

// stop shuts the server down and waits for its accept loop to end.
func (e *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; err == nil {
		err = serr
	}
	return err
}

// httpClient is one closed-loop client on one connection.
type httpClient struct {
	base string
	c    *http.Client
	sid  string
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &httpClient{base: base, c: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// do sends one request and returns the body of a 2xx reply; any other
// status is an error, so refusals (429/503) fail the op that met them.
func (h *httpClient) do(ctx context.Context, span, method, path, contentType string, body []byte) ([]byte, error) {
	_, sp := obs.StartSpan(ctx, span, obs.String("path", path))
	out, err := h.roundTrip(method, path, contentType, body)
	sp.EndErr(err)
	return out, err
}

func (h *httpClient) roundTrip(method, path, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if h.sid != "" {
		req.Header.Set(server.SessionHeader, h.sid)
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func (h *httpClient) postJSON(ctx context.Context, span, path string, body any) ([]byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return h.do(ctx, span, http.MethodPost, path, "application/json", raw)
}

type runRequest struct {
	AsOf        string `json:"as_of"`
	Incremental bool   `json:"incremental"`
}

// run posts one recalculation and returns the engine's report from the reply.
func (h *httpClient) run(ctx context.Context, at time.Time) (*engine.Report, error) {
	raw, err := h.postJSON(ctx, "http.run", "/v1/run", runRequest{AsOf: at.Format(time.RFC3339), Incremental: true})
	if err != nil {
		return nil, err
	}
	var info struct {
		Report *engine.Report `json:"report"`
	}
	if err := json.Unmarshal(raw, &info); err != nil {
		return nil, fmt.Errorf("run reply: %w", err)
	}
	if info.Report == nil {
		return nil, fmt.Errorf("run reply carries no report")
	}
	return info.Report, nil
}

func (h *httpClient) putCube(ctx context.Context, name string, at time.Time, body []byte) error {
	_, err := h.do(ctx, "http.put", http.MethodPut, "/v1/cubes/"+name+"?as_of="+at.Format(time.RFC3339), "text/csv", body)
	return err
}

func (h *httpClient) tenantRegistry() (regSnapshot, error) {
	raw, err := h.roundTrip(http.MethodGet, "/v1/metrics?format=json", "", nil)
	if err != nil {
		return regSnapshot{}, err
	}
	return parseRegistry(raw)
}

// servedCubes are the derived cubes a client reads back after every run.
var servedCubes = []string{"PQR", "GDP", "PCHNG"}

// clientEpoch is what one client measured in one epoch.
type clientEpoch struct {
	tenant      string
	sessionOpen time.Duration
	reg0        regSnapshot
	err         error
}

// serveEpoch runs one epoch of the HTTP workload: every client opens a
// session on a tenant of its own, registers the program, loads the base
// cubes and primes; then all clients step together, op = PUT the revision
// as CSV + POST a run + GET three derived cubes.
func (b *bench) serveEpoch(w *workloadDef, in *inputs, env *serveEnv, epoch int, traced bool) *epochResult {
	res := &epochResult{traced: traced}
	ctx := context.Background()
	if traced {
		res.tracer = obs.NewTracer()
		ctx = obs.ContextWithTracer(ctx, res.tracer)
	}
	heap0 := heapAfterGC()
	srv0 := snapshotRegistry(env.srv.Metrics())

	clients := make([]*httpClient, b.sz.ServeClients)
	eps := make([]*clientEpoch, len(clients))
	for i := range clients {
		clients[i] = newHTTPClient(env.baseURL)
		defer clients[i].close()
		eps[i] = &clientEpoch{tenant: fmt.Sprintf("e%dc%d", epoch, i)}
		defer os.RemoveAll(filepath.Join(env.dataDir, eps[i].tenant))
	}
	each := func(fn func(h *httpClient, ce *clientEpoch)) {
		var wg sync.WaitGroup
		for i := range clients {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if eps[i].err == nil {
					fn(clients[i], eps[i])
				}
			}(i)
		}
		wg.Wait()
	}
	firstErr := func() error {
		for _, ce := range eps {
			if ce.err != nil {
				return fmt.Errorf("tenant %s: %w", ce.tenant, ce.err)
			}
		}
		return nil
	}

	// Set-up, all clients at once; setup_s is the wall time of the phase.
	t0 := time.Now()
	each(func(h *httpClient, ce *clientEpoch) { ce.err = serveSetup(ctx, h, ce, in) })
	res.setup = time.Since(t0)
	if res.err = firstErr(); res.err != nil {
		return res
	}

	// Step loop, all clients at once. Allocation is process-wide, so it is
	// read around the whole loop and includes the clients' own share.
	rt0 := readRT()
	meter := startLoop(res)
	var mu sync.Mutex // the clients record their ops into res between ops, outside the timed region
	each(func(h *httpClient, ce *clientEpoch) { ce.err = serveSteps(ctx, h, ce, in, w.name, epoch, res, &mu) })
	meter.end()
	rt1 := readRT()
	res.allocBytes, res.mallocs = rt1.allocBytes-rt0.allocBytes, rt1.allocObjs-rt0.allocObjs
	res.peakHeap = rt1.heapObjects
	if res.err = firstErr(); res.err != nil {
		return res
	}
	heap1 := heapAfterGC()
	res.liveHeap = heap1 - heap0

	// Collect, verify over HTTP, close the sessions (which closes the
	// tenants' durable stores), then verify what the disk holds.
	var queueWaitSum float64
	var queueWaitN int64
	for i, ce := range eps {
		res.sessionOpen += ce.sessionOpen / time.Duration(len(eps))

		reg, err := clients[i].tenantRegistry()
		if err != nil {
			res.err = err
			return res
		}
		d := reg.minus(ce.reg0)
		if res.reg.Counters == nil {
			res.reg.Counters = map[string]int64{}
		}
		for k, v := range d.Counters {
			res.reg.Counters[k] += v
		}
		res.fsCounts.WriteBytes += d.counter(obs.MetricStoreWALBytes)
		res.fsCounts.WriteCalls += d.counter(obs.MetricStoreWALRecords)
		res.fsCounts.Fsyncs += d.counter(obs.MetricStoreFsyncs)
		res.fsCounts.Compactions += d.counter(obs.MetricStoreSegments)
		res.shed += d.counter(obs.MetricShed)
		if h, ok := reg.Histograms[obs.MetricQueueWait]; ok {
			queueWaitSum += h.Sum
			queueWaitN += h.Count
		}
		if p := reg.Gauges[obs.MetricMemPeak]; p > res.memPeak {
			res.memPeak = p
		}
		if err := serveVerify(clients[i], in, b.corrupt); err != nil {
			res.err = fmt.Errorf("tenant %s: %w", ce.tenant, err)
			return res
		}
	}
	res.queueWaitMS = ratio(queueWaitSum, float64(queueWaitN))
	srv := snapshotRegistry(env.srv.Metrics()).minus(srv0)
	res.overload = srv.counter(server.MetricHTTPOverload)
	res.errs = srv.counter(server.MetricHTTPErrors)

	for i, ce := range eps {
		if _, err := clients[i].roundTrip(http.MethodDelete, "/v1/sessions/"+clients[i].sid, "", nil); err != nil {
			res.err = err
			return res
		}
		if !checksDisk(epoch, traced) {
			continue
		}
		dir := filepath.Join(env.dataDir, ce.tenant)
		t0 := time.Now()
		re, err := durable.Open(dir)
		res.recover += time.Since(t0) / time.Duration(len(eps))
		if err != nil {
			res.err = fmt.Errorf("reopening tenant %s: %w", ce.tenant, err)
			return res
		}
		res.retained += retainedTuples(re)
		res.err = verifyRecovered(re, in, b.corrupt)
		res.dirBytes += dirSize(dir)
		if err := re.Close(); err != nil && res.err == nil {
			res.err = err
		}
		if res.err != nil {
			return res
		}
	}
	return res
}

func serveSetup(ctx context.Context, h *httpClient, ce *clientEpoch, in *inputs) error {
	t0 := time.Now()
	raw, err := h.postJSON(ctx, "http.session", "/v1/sessions", map[string]string{"tenant": ce.tenant})
	if err != nil {
		return err
	}
	ce.sessionOpen = time.Since(t0)
	var sess struct {
		Session string `json:"session"`
	}
	if err := json.Unmarshal(raw, &sess); err != nil {
		return err
	}
	h.sid = sess.Session
	if _, err := h.postJSON(ctx, "http.program", "/v1/programs",
		map[string]string{"name": in.programID, "source": in.program}); err != nil {
		return err
	}
	for _, name := range sortedCubeNames(in.base) {
		if err := h.putCube(ctx, name, day0, in.baseCSV[name]); err != nil {
			return err
		}
	}
	if _, err := h.run(ctx, day0); err != nil {
		return err
	}
	ce.reg0, err = h.tenantRegistry()
	return err
}

func serveSteps(ctx context.Context, h *httpClient, ce *clientEpoch, in *inputs, workload string, epoch int, r *epochResult, mu *sync.Mutex) error {
	var srcBase int64
	for name, c := range in.base {
		if name != in.revised {
			srcBase += int64(c.Len())
		}
	}
	for k := 0; k < in.steps; k++ {
		body, at := in.revisionCSV[k%len(in.revisionCSV)], dayOf(k)
		octx, op := obs.StartSpan(ctx, "op", obs.String("workload", workload),
			obs.Int("epoch", epoch), obs.Int("step", k), obs.String("tenant", ce.tenant))
		t0 := time.Now()
		err := h.putCube(octx, in.revised, at, body)
		t1 := time.Now()
		var rep *engine.Report
		if err == nil {
			rep, err = h.run(octx, at)
		}
		t2 := time.Now()
		var out int64
		for _, name := range servedCubes {
			if err != nil {
				break
			}
			var got []byte
			got, err = h.do(octx, "http.get", http.MethodGet, "/v1/cubes/"+name, "", nil)
			out += int64(len(got))
		}
		t3 := time.Now()
		op.EndErr(err)
		if err != nil {
			return fmt.Errorf("step %d: %w", k, err)
		}
		mu.Lock()
		r.ops = append(r.ops, t3.Sub(t0))
		r.puts = append(r.puts, t1.Sub(t0))
		r.runs = append(r.runs, t2.Sub(t1))
		r.gets = append(r.gets, t3.Sub(t2)/time.Duration(len(servedCubes)))
		r.hops = append(r.hops, t2.Sub(t1)-rep.Elapsed)
		r.srcTuples += srcBase + int64(in.revision(k).Len())
		r.putCSV += int64(len(body))
		r.csvIn += int64(len(body))
		r.csvOut += out
		r.addReport(rep)
		if op != nil {
			r.opSpans = append(r.opSpans, op)
		}
		mu.Unlock()
	}
	return nil
}

// serveVerify fetches every derived cube as CSV and compares it with the
// reference outputs.
func serveVerify(h *httpClient, in *inputs, corrupt bool) error {
	for name, want := range expectedCubes(in, corrupt) {
		raw, err := h.roundTrip(http.MethodGet, "/v1/cubes/"+name, "", nil)
		if err != nil {
			return err
		}
		got, err := store.ReadCSV(bytes.NewReader(raw), want.Schema())
		if err != nil {
			return fmt.Errorf("verify %s: %w", name, err)
		}
		if err := compareCube(name, got, want, in.tol); err != nil {
			return err
		}
	}
	return nil
}
