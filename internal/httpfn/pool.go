package httpfn

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/matrix"
)

// Pool is a live miniature of the Knative autoscaler: a set of real
// function servers that grows when in-flight concurrency exceeds the
// per-replica target. It lets the
// live examples exercise cold starts and scale-out with real HTTP and real
// compute.
type Pool struct {
	mu       sync.Mutex
	client   Client
	servers  []*Server
	bases    []string
	inFlight int
	next     int

	// Target is the desired in-flight requests per replica.
	Target int
	// Max is the replica ceiling; NewPool starts the floor.
	Max int
	// AppInit is each new replica's initialisation delay (the cold start).
	AppInit time.Duration

	// ColdStarts counts replicas launched after the initial ones.
	ColdStarts int
}

// NewPool starts a pool with its min replicas running.
func NewPool(target, min, max int, appInit time.Duration) (*Pool, error) {
	if target < 1 || min < 1 || max < min {
		return nil, fmt.Errorf("httpfn: bad pool bounds target=%d min=%d max=%d", target, min, max)
	}
	p := &Pool{Target: target, Max: max, AppInit: appInit}
	for i := 0; i < min; i++ {
		if err := p.addServerLocked(0); err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

// addServerLocked launches one replica (caller holds mu or is constructing).
func (p *Pool) addServerLocked(init time.Duration) error {
	srv := NewServer(init)
	base, err := srv.Start()
	if err != nil {
		return err
	}
	p.servers = append(p.servers, srv)
	p.bases = append(p.bases, base)
	return nil
}

// Replicas returns the current replica count.
func (p *Pool) Replicas() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.servers)
}

// Invoke routes a request to a replica, scaling out first when concurrency
// exceeds Target per replica. It blocks through any cold start it causes.
func (p *Pool) Invoke(a, b *matrix.Matrix) (*matrix.Matrix, error) {
	p.mu.Lock()
	p.inFlight++
	if p.inFlight > p.Target*len(p.servers) && len(p.servers) < p.Max {
		if err := p.addServerLocked(p.AppInit); err != nil {
			p.inFlight--
			p.mu.Unlock()
			return nil, err
		}
		p.ColdStarts++
	}
	p.next++
	base := p.bases[p.next%len(p.bases)]
	p.mu.Unlock()

	defer func() {
		p.mu.Lock()
		p.inFlight--
		p.mu.Unlock()
	}()

	// Wait out a cold start if we hit an initialising replica.
	deadline := time.Now().Add(p.AppInit + 5*time.Second)
	for !p.client.Healthy(base) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("httpfn: replica %s never became ready", base)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return p.client.Invoke(base, a, b)
}

// Close shuts every replica down.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, srv := range p.servers {
		_ = srv.Close()
	}
	p.servers = nil
	p.bases = nil
}
