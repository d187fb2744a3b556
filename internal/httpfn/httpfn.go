// Package httpfn is the live (non-simulated) counterpart of the paper's
// Flask wrapper (§V-C): a real net/http server that wraps the matrix
// multiplication task in an HTTP event listener, a client that invokes it
// passing the input matrices by value in the request body, and a small
// round-robin balancer standing in for the serverless router. The live
// example (examples/live) runs chains of real multiplications through it.
package httpfn

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/matrix"
)

// Server wraps the matmul task in an HTTP event listener.
type Server struct {
	httpSrv *http.Server
	lis     net.Listener
	// appInit simulates interpreter/library import time before the first
	// request can be served (0 for instant readiness).
	appInit time.Duration
	readyAt time.Time
}

// NewServer returns an unstarted function server. appInit delays readiness
// after Start, mimicking the cold-start application-initialisation phase.
func NewServer(appInit time.Duration) *Server {
	return &Server{appInit: appInit}
}

// Start binds a loopback listener on an ephemeral port and serves in the
// background. It returns the server's base URL.
func (s *Server) Start() (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.lis = lis
	s.readyAt = time.Now().Add(s.appInit)
	mux := http.NewServeMux()
	mux.HandleFunc("/invoke", s.handleInvoke)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.httpSrv = &http.Server{Handler: mux}
	go func() { _ = s.httpSrv.Serve(lis) }()
	return "http://" + lis.Addr().String(), nil
}

// Close shuts the server down.
func (s *Server) Close() error {
	if s.httpSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.httpSrv.Shutdown(ctx)
}

func (s *Server) ready() bool { return time.Now().After(s.readyAt) }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.ready() {
		http.Error(w, "initialising", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleInvoke reads two matrices from the request body (pass-by-value,
// §IV-3), multiplies them, and writes the product back.
func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if !s.ready() {
		http.Error(w, "initialising", http.StatusServiceUnavailable)
		return
	}
	a, err := matrix.ReadFrom(r.Body)
	if err != nil {
		http.Error(w, "first operand: "+err.Error(), http.StatusBadRequest)
		return
	}
	b, err := matrix.ReadFrom(r.Body)
	if err != nil {
		http.Error(w, "second operand: "+err.Error(), http.StatusBadRequest)
		return
	}
	if a.Cols != b.Rows {
		http.Error(w, fmt.Sprintf("shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols), http.StatusBadRequest)
		return
	}
	product := a.Mul(b)
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := product.WriteTo(w); err != nil {
		// Too late for a status change; the client's decode will fail.
		return
	}
}

// Client invokes function servers.
type Client struct {
	HTTP http.Client
	// Timeout bounds one invocation end to end — request write through
	// response decode — the live counterpart of the simulation's request
	// deadline. 0 means no deadline.
	Timeout time.Duration
}

// Invoke POSTs both operands by value to base/invoke and decodes the
// product from the response. A non-200 response is an error carrying its
// status and the start of its body.
func (c *Client) Invoke(base string, a, b *matrix.Matrix) (*matrix.Matrix, error) {
	var body bytes.Buffer
	if _, err := a.WriteTo(&body); err != nil {
		return nil, err
	}
	if _, err := b.WriteTo(&body); err != nil {
		return nil, err
	}
	ctx := context.Background()
	cancel := func() {}
	if c.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
	}
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/invoke", &body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("httpfn: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return matrix.ReadFrom(resp.Body)
}

// Healthy reports whether base passes its readiness probe.
func (c *Client) Healthy(base string) bool {
	resp, err := c.HTTP.Get(base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// Balancer round-robins invocations over a set of function replicas — the
// live stand-in for the serverless router.
type Balancer struct {
	client Client
	bases  []string
	next   atomic.Uint64
}

// NewBalancer returns a balancer over the given base URLs.
func NewBalancer(bases ...string) *Balancer {
	if len(bases) == 0 {
		panic("httpfn: balancer needs at least one backend")
	}
	return &Balancer{bases: append([]string(nil), bases...)}
}

// Invoke forwards to the next replica in round-robin order.
func (lb *Balancer) Invoke(a, b *matrix.Matrix) (*matrix.Matrix, error) {
	i := (lb.next.Add(1) - 1) % uint64(len(lb.bases))
	return lb.client.Invoke(lb.bases[i], a, b)
}
