package httpfn

import (
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/sim"
)

func startServer(t *testing.T, appInit time.Duration) string {
	t.Helper()
	srv := NewServer(appInit)
	base, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return base
}

// countInvokes fronts the server at base with a reverse proxy that counts
// the invocations it forwards, and returns the proxy's base URL and the
// count: more than one through one server means its "container" was
// reused.
func countInvokes(t *testing.T, base string) (string, *atomic.Int64) {
	t.Helper()
	target, err := url.Parse(base)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	n := new(atomic.Int64)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/invoke" {
			n.Add(1)
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)
	return front.URL, n
}

func randMat(seed uint64, n int) *matrix.Matrix {
	rng := sim.NewRNG(seed)
	m := matrix.New(n, n)
	m.Rand(rng.Uint64, -100, 100)
	return m
}

func TestInvokeComputesProduct(t *testing.T) {
	base := startServer(t, 0)
	base, n := countInvokes(t, base)
	var c Client
	a, b := randMat(1, 30), randMat(2, 30)
	got, err := c.Invoke(base, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a.Mul(b)) {
		t.Error("HTTP product differs from local product")
	}
	if n.Load() != 1 {
		t.Errorf("invocations = %d", n.Load())
	}
}

func TestContainerReuseAcrossTasks(t *testing.T) {
	base := startServer(t, 0)
	base, n := countInvokes(t, base)
	var c Client
	cur := randMat(3, 20)
	b := randMat(4, 20)
	for i := 0; i < 5; i++ {
		next, err := c.Invoke(base, cur, b)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	if n.Load() != 5 {
		t.Errorf("invocations = %d, want 5 through one warm server", n.Load())
	}
}

func TestShapeMismatchRejected(t *testing.T) {
	base := startServer(t, 0)
	var c Client
	a := randMat(5, 4)
	b := randMat(6, 7)
	if _, err := c.Invoke(base, a, b); err == nil || !strings.Contains(err.Error(), "shape mismatch") {
		t.Errorf("err = %v", err)
	}
}

func TestHealthzAndColdInit(t *testing.T) {
	base := startServer(t, 300*time.Millisecond)
	var c Client
	if c.Healthy(base) {
		t.Error("server healthy before app init finished")
	}
	deadline := time.Now().Add(3 * time.Second)
	for !c.Healthy(base) {
		if time.Now().After(deadline) {
			t.Fatal("server never became healthy")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestInvokeDuringInitRejected(t *testing.T) {
	base := startServer(t, 2*time.Second)
	var c Client
	if _, err := c.Invoke(base, randMat(7, 5), randMat(8, 5)); err == nil {
		t.Error("invocation during init succeeded")
	}
}

func TestBalancerRoundRobin(t *testing.T) {
	base1 := startServer(t, 0)
	base2 := startServer(t, 0)
	base1, n1 := countInvokes(t, base1)
	base2, n2 := countInvokes(t, base2)
	lb := NewBalancer(base1, base2)
	a, b := randMat(9, 10), randMat(10, 10)
	for i := 0; i < 6; i++ {
		if _, err := lb.Invoke(a, b); err != nil {
			t.Fatal(err)
		}
	}
	if n1.Load() != 3 || n2.Load() != 3 {
		t.Errorf("distribution = %d/%d, want 3/3", n1.Load(), n2.Load())
	}
}

func TestConcurrentInvocations(t *testing.T) {
	base := startServer(t, 0)
	base, n := countInvokes(t, base)
	a, b := randMat(11, 40), randMat(12, 40)
	want := a.Mul(b)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c Client
			got, err := c.Invoke(base, a, b)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n.Load() != 8 {
		t.Errorf("invocations = %d", n.Load())
	}
}

func TestGetInvokeRejected(t *testing.T) {
	base := startServer(t, 0)
	var c Client
	resp, err := c.HTTP.Get(base + "/invoke")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET /invoke = %d, want 405", resp.StatusCode)
	}
}

func TestClientTimeout(t *testing.T) {
	// A listener that accepts and never responds: the client's deadline
	// must fire instead of hanging the invocation forever.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	c := Client{Timeout: 50 * time.Millisecond}
	start := time.Now()
	_, err = c.Invoke("http://"+lis.Addr().String(), randMat(1, 4), randMat(2, 4))
	if err == nil {
		t.Fatal("invocation of a hung backend succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, configured 50ms", elapsed)
	}
}
