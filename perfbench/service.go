package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"dtr/internal/obs"
	"dtr/internal/serve"
)

// server is the planning service on a loopback listener, configured like
// dtrserved's defaults (metrics registry and request tracer on, default
// cache, admission and worker budget), plus the benchmark's HTTP client.
type server struct {
	svc       *serve.Service
	reg       *obs.Registry
	tracer    *obs.Tracer
	srv       *http.Server
	url       string
	transport *http.Transport
	client    *http.Client
	done      chan error
}

// startServer starts the service. instrumented=false turns the registry
// and tracer off, as the tracing-overhead probe needs; spans, when set,
// receives every completed span tree as a JSON line.
func startServer(instrumented bool, spans *spanSink) (*server, error) {
	var reg *obs.Registry
	var tracer *obs.Tracer
	if instrumented {
		reg = obs.NewRegistry()
		cfg := obs.TracerConfig{}
		if spans != nil {
			cfg.Writer = spans
		}
		tracer = obs.NewTracer(cfg)
	}
	svc := serve.New(serve.Config{Registry: reg, Tracer: tracer})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:    svc,
		reg:    reg,
		tracer: tracer,
		srv:    &http.Server{Handler: svc.Handler()},
		url:    "http://" + ln.Addr().String(),
		done:   make(chan error, 1),
	}
	// Load comes from at most one connection per core.
	conns := runtime.NumCPU()
	s.transport = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	s.client = &http.Client{Transport: s.transport, Timeout: 2 * time.Minute}
	s.install()
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// install makes the server's registry and tracer the process-wide ones,
// as dtrserved does; that binds the solver packages' counters to it.
func (s *server) install() {
	obs.SetDefault(s.reg)
	obs.SetTracer(s.tracer)
}

// close stops the listener, waits for in-flight requests and for the
// serving goroutine to return.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a timeout here leaves nothing to clean up beyond Close
	_ = s.srv.Close()
	<-s.done
	s.transport.CloseIdleConnections()
}

// post sends one planning request and returns the status and body.
func (s *server) post(verb string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url+"/v1/"+verb, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// request is one planning request as the benchmark generates it.
type request struct {
	verb string
	req  serve.Request
	body []byte
}

func newRequest(verb string, r serve.Request) (request, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return request{}, fmt.Errorf("encode %s request: %w", verb, err)
	}
	return request{verb: verb, req: r, body: b}, nil
}

// spanSink collects the service's exported span trees: the traced run
// reads queue waits from them.
type spanSink struct {
	mu         sync.Mutex
	queueWaits []float64 // ms
	err        error     // the first line that did not decode
}

// Write receives one JSON line per completed trace (the tracer
// serializes calls).
func (k *spanSink) Write(p []byte) (int, error) {
	var rec obs.TraceRecord
	k.mu.Lock()
	defer k.mu.Unlock()
	if err := json.Unmarshal(p, &rec); err != nil {
		if k.err == nil {
			k.err = fmt.Errorf("span export line: %w", err)
		}
		return len(p), nil
	}
	for _, sp := range rec.Spans {
		if sp.Name == "queue_wait" {
			k.queueWaits = append(k.queueWaits, float64(sp.DurUs)/1000)
		}
	}
	return len(p), nil
}

func (k *spanSink) reset() {
	if k == nil {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.queueWaits, k.err = nil, nil
}

// waits returns the queue waits seen since the last reset, in ms.
func (k *spanSink) waits() ([]float64, error) {
	if k == nil {
		return nil, nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]float64(nil), k.queueWaits...), k.err
}
