package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"dynplan"
)

// environment is what a run needs from the file system: where outputs
// go and, once built, the obsd binary.
type environment struct {
	outDir  string
	obsdBin string
}

// obsdPackage is built through this module's replace directive, so the
// server under test is the checkout's own source.
const obsdPackage = "dynplan/cmd/obsd"

// buildObsd compiles the server once per run. Build time is not part of
// set-up time: a deployment boots a binary, it does not compile one.
func (env *environment) buildObsd(ctx context.Context) error {
	if env.obsdBin != "" {
		return nil
	}
	bin, err := filepath.Abs(filepath.Join(env.outDir, "bin", "obsd"))
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, obsdPackage)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %w\n%s", obsdPackage, err, out)
	}
	env.obsdBin = bin
	return nil
}

// server is a running obsd child process.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	log     *os.File
}

// startServer boots obsd on a free loopback port and waits until
// /metrics answers. The child dies with ctx (a signal cancels it), and
// stop kills and reaps it. Each boot starts the log afresh; stop reads it
// before the next boot can.
func startServer(ctx context.Context, env *environment) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	logPath := filepath.Join(env.outDir, "obsd.log")
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, env.obsdBin, "-addr", addr, "-n", "0", "-stale", "1",
		"-seed", fmt.Sprint(demoSeed), "-profile")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1") // see run: one P per process
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		_ = logFile.Close() // the start error is the one worth reporting
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, logPath: logPath, log: logFile}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.base + "/metrics")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // readiness probe: only the status matters
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			_ = s.stop() // the readiness failure is the one worth reporting
			return nil, fmt.Errorf("obsd not ready on %s within 10s (see %s): %v", addr, logPath, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills the child, waits for it, and fails if its log shows a
// panic: net/http recovers a handler panic and keeps serving, so the
// log is the only place one surfaces.
func (s *server) stop() error {
	_ = s.cmd.Process.Kill() // already exited is fine: Wait reports it
	_ = s.cmd.Wait()         // "signal: killed" is the expected status
	if err := s.log.Close(); err != nil {
		return err
	}
	f, err := os.Open(s.logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.Contains(sc.Text(), "panic") {
			return fmt.Errorf("obsd log %s: %s", s.logPath, sc.Text())
		}
	}
	return sc.Err()
}

// remote sends ops to obsd, one keep-alive connection and one tenant
// per client.
type remote struct {
	srv     *server
	w       *workload
	clients []*http.Client
	// bodies are the ops' request bodies, encoded once: the measured
	// client cost is the round trip, not json.Marshal.
	bodies [][]byte
	mirror *mirror
}

// mirror is the in-process copy of the server's database that answers
// "how many rows should this op return".
type mirror struct {
	e       *engine
	queries []*dynplan.Query
}

type queryRequest struct {
	SQL           string             `json:"sql"`
	Selectivities map[string]float64 `json:"selectivities"`
	MemoryPages   float64            `json:"memory_pages"`
}

type queryResponse struct {
	RowCount       int     `json:"row_count"`
	PreparedReused bool    `json:"prepared_reused"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	Error          string  `json:"error"`
}

func newRemote(ctx context.Context, w *workload, env *environment) (*remote, error) {
	if err := env.buildObsd(ctx); err != nil {
		return nil, err
	}
	srv, err := startServer(ctx, env)
	if err != nil {
		return nil, err
	}
	r := &remote{srv: srv, w: w}
	for range w.clients {
		r.clients = append(r.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		})
	}
	for _, o := range w.ops {
		body, err := json.Marshal(queryRequest{
			SQL: w.statements[o.stmt].sql, Selectivities: o.bind.Selectivities, MemoryPages: o.bind.MemoryPages,
		})
		if err != nil {
			return nil, errors.Join(err, r.close())
		}
		r.bodies = append(r.bodies, body)
	}
	// Probe: the server must be serving the database the mirror copies,
	// or every later row-count check is meaningless.
	if r.mirror, err = newMirror(w); err == nil {
		var got outcome
		if got, err = r.do(ctx, 0, 0); err == nil {
			err = r.mirror.check(ctx, w.ops[0], got)
		}
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("probe query against obsd: %w", err), r.close())
	}
	return r, nil
}

func newMirror(w *workload) (*mirror, error) {
	e, err := demoEngine()
	if err != nil {
		return nil, err
	}
	m := &mirror{e: e}
	for _, st := range w.statements {
		q, err := e.sys.Parse(st.sql)
		if err != nil {
			return nil, err
		}
		m.queries = append(m.queries, q)
	}
	return m, nil
}

func (m *mirror) check(ctx context.Context, o op, seen outcome) error {
	want, err := oracle(ctx, m.e, m.queries[o.stmt], o.bind)
	if err != nil {
		return fmt.Errorf("mirror: %w", err)
	}
	if len(want.Rows) != seen.rows {
		return fmt.Errorf("server reported %d rows, mirror has %d", seen.rows, len(want.Rows))
	}
	return nil
}

// do sends op i on the client's connection.
func (r *remote) do(ctx context.Context, client, i int) (outcome, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.srv.base+"/query", bytes.NewReader(r.bodies[i]))
	if err != nil {
		return outcome{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", fmt.Sprintf("t%d", client))
	resp, err := r.clients[client].Do(req)
	if err != nil {
		return outcome{}, err
	}
	defer resp.Body.Close()
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return outcome{}, fmt.Errorf("status %d: %w", resp.StatusCode, err)
	}
	// Drain to EOF so the connection goes back to the pool.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return outcome{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return outcome{}, fmt.Errorf("status %d: %s", resp.StatusCode, qr.Error)
	}
	return outcome{rows: qr.RowCount, serverUS: qr.ElapsedMS * 1e3, reused: qr.PreparedReused}, nil
}

func (r *remote) verify(ctx context.Context, i int, seen outcome) error {
	return r.mirror.check(ctx, r.w.ops[i], seen)
}

// getJSON fetches one of the server's JSON endpoints.
func (r *remote) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.srv.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// memory reads the server's runtime.MemStats through expvar.
func (r *remote) memory(ctx context.Context) (memCounters, error) {
	var vars struct {
		Memstats memCounters `json:"memstats"`
	}
	err := r.getJSON(ctx, "/debug/vars", &vars)
	return vars.Memstats, err
}

// serverMetrics is the slice of obsd's /metrics the benchmark reads.
type serverMetrics struct {
	Sheds     int64 `json:"sheds"`
	QueueWait struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum"`
	} `json:"queue_wait_ns"`
}

func (r *remote) metrics(ctx context.Context) (serverMetrics, error) {
	var m serverMetrics
	err := r.getJSON(ctx, "/metrics", &m)
	return m, err
}

func (r *remote) close() error {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	return r.srv.stop()
}
