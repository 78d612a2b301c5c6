// Package jobs is the in-memory job store behind the daemon's
// asynchronous API (POST /v1/jobs): bounded-capacity bookkeeping for
// submitted computations, their lifecycle states, TTL retention of
// finished results, duplicate-submission coalescing, and cancellation.
//
// The store holds records, never goroutines: execution belongs to the
// service layer (internal/service spawns one runner per fresh job onto
// the existing worker pool), which reports transitions back through
// Start and Finish. Keeping the store passive makes every lifecycle rule
// — who may transition where, when a record expires, what counts toward
// capacity — a synchronous, deterministically testable function of its
// inputs and the injected clock.
//
// Lifecycle:
//
//	queued ──Start──> running ──Finish──> done | failed
//	   │                 │
//	   └────Cancel───────┴──────────────> canceled
//
// Terminal states (done, failed, canceled) are absorbing: Cancel flips a
// job's state immediately and a runner's later Finish is a no-op, so the
// client-observable state never moves backwards. Every record — active
// or finished — counts toward Config.Capacity; when submission finds the
// store full it first evicts expired finished jobs, then the oldest
// finished job, and only sheds (ErrFull) when capacity is consumed
// entirely by queued and running work.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a job's lifecycle state as it appears on the wire.
type State string

// The five job states. A job is "active" while queued or running and
// "finished" in any terminal state.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is an absorbing state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ErrFull is returned by Submit when every capacity slot is held by an
// active (queued or running) job; the service maps it to 429 and the
// jobs "shed" counter.
var ErrFull = errors.New("jobs: store full")

// Outcome is a finished job's stored reply: the HTTP status code and the
// encoded body the synchronous endpoint would have written for the same
// request. The store treats both as opaque; replaying them byte-for-byte
// is what keeps the async path's results identical to the sync path's.
type Outcome struct {
	// Code is the HTTP status of the stored reply (200 for done jobs,
	// the original 4xx/5xx for failed ones).
	Code int
	// Body is the encoded wire response, newline-terminated.
	Body []byte
	// Incident is the incident id of a failed job's 500 reply ("" for
	// every other outcome), replayed as the X-Incident-Id header.
	Incident string
}

// Config sizes a Store. The zero value means 1024 records and a 10
// minute TTL.
type Config struct {
	// Capacity bounds live records of every state (0 means 1024;
	// negative means 0 — every submission sheds).
	Capacity int
	// TTL is how long a finished job's record (and result body) is
	// retained for polling before eviction (0 means 10 minutes).
	TTL time.Duration
	// Prefix namespaces job ids, so ids from different daemon boots are
	// distinguishable in logs ("" is valid).
	Prefix string
	// Now is the clock (nil means time.Now). Tests inject a fake to make
	// TTL eviction deterministic.
	Now func() time.Time
}

// Job is one submitted computation's record. Immutable identity fields
// are safe to read from any goroutine; lifecycle state is owned by the
// Store and read through Snapshot.
type Job struct {
	id  string
	typ string
	key string

	ctx    context.Context
	cancel context.CancelFunc
	store  *Store

	// Guarded by store.mu.
	state     State
	outcome   Outcome
	errText   string
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// ID returns the job's unique id.
func (j *Job) ID() string { return j.id }

// Type returns the job's computation type ("partition", "order", ...).
func (j *Job) Type() string { return j.typ }

// Key returns the coalescing key the job was submitted under ("" when
// the submission was not coalescable).
func (j *Job) Key() string { return j.key }

// Context returns the job's execution context; it is canceled by Cancel
// and carries no deadline of its own (the runner applies the compute
// deadline when execution starts).
func (j *Job) Context() context.Context { return j.ctx }

// Snapshot is a consistent copy of a job's observable state.
type Snapshot struct {
	ID    string
	Type  string
	State State
	// Outcome is the stored reply; zero until the job finishes.
	Outcome Outcome
	// Error is the short error text of a failed or canceled job.
	Error string
	// Submitted, Started and Finished are the lifecycle timestamps;
	// Started and Finished are zero until the transition happens.
	Submitted, Started, Finished time.Time
}

// Snapshot returns a consistent copy of the job's current state. The
// Outcome body is shared and must not be modified.
func (j *Job) Snapshot() Snapshot {
	j.store.mu.Lock()
	defer j.store.mu.Unlock()
	return Snapshot{
		ID:        j.id,
		Type:      j.typ,
		State:     j.state,
		Outcome:   j.outcome,
		Error:     j.errText,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
}

// Gauges is the store's observable occupancy, for /varz.
type Gauges struct {
	Queued, Running, Done, Failed, Canceled int
	// Expired counts records evicted after their TTL (or displaced by
	// capacity pressure) over the store's lifetime.
	Expired int64
}

// Store is the bounded, TTL-evicting job registry. All methods are safe
// for concurrent use.
type Store struct {
	capacity int
	ttl      time.Duration
	prefix   string
	now      func() time.Time

	mu       sync.Mutex
	seq      int64
	jobs     map[string]*Job
	byKey    map[string]*Job // active (queued|running) jobs by coalescing key
	finished []*Job          // terminal jobs in finish order (eviction FIFO)
	expired  int64
}

// New returns a Store sized by cfg.
func New(cfg Config) *Store {
	switch {
	case cfg.Capacity == 0:
		cfg.Capacity = 1024
	case cfg.Capacity < 0:
		cfg.Capacity = 0
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 10 * time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Store{
		capacity: cfg.Capacity,
		ttl:      cfg.TTL,
		prefix:   cfg.Prefix,
		now:      cfg.Now,
		jobs:     make(map[string]*Job),
		byKey:    make(map[string]*Job),
	}
}

// Capacity returns the configured record bound.
func (s *Store) Capacity() int { return s.capacity }

// TTL returns the configured finished-job retention.
func (s *Store) TTL() time.Duration { return s.ttl }

// Submit registers a new queued job of the given type. A non-empty key
// makes the submission coalescable: when an active job with the same key
// exists, that job is returned with fresh == false and nothing new is
// created — duplicate submissions share one execution. ErrFull is
// returned when capacity is exhausted by active jobs after eviction.
func (s *Store) Submit(typ, key string) (j *Job, fresh bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	s.evictExpiredLocked(now)
	if key != "" {
		if dup, ok := s.byKey[key]; ok {
			return dup, false, nil
		}
	}
	// Capacity pressure evicts the oldest finished record before a new
	// submission is refused: retained results are a cache, active work
	// is a commitment.
	for len(s.jobs) >= s.capacity && len(s.finished) > 0 {
		s.evictLocked(s.finished[0])
	}
	if len(s.jobs) >= s.capacity {
		return nil, false, ErrFull
	}
	s.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j = &Job{
		id:        fmt.Sprintf("%s%d", s.prefix, s.seq),
		typ:       typ,
		key:       key,
		ctx:       ctx,
		cancel:    cancel,
		store:     s,
		state:     StateQueued,
		submitted: now,
	}
	s.jobs[j.id] = j
	if key != "" {
		s.byKey[key] = j
	}
	return j, true, nil
}

// Get returns the job with the given id. Expired finished jobs are
// evicted on access, so a record is never observable past its TTL.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictExpiredLocked(s.now())
	j, ok := s.jobs[id]
	return j, ok
}

// Start transitions a queued job to running and stamps the start time.
// It returns false when the job is no longer queued (canceled while
// waiting for a worker slot), in which case the runner must not execute.
func (s *Store) Start(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = s.now()
	return true
}

// Finish transitions a job to a terminal state with its stored outcome.
// Transitions out of a terminal state are ignored (first one wins), so a
// runner completing after a Cancel does not resurrect the job.
func (s *Store) Finish(j *Job, state State, out Outcome, errText string) {
	if !state.Terminal() {
		panic(fmt.Sprintf("jobs: Finish to non-terminal state %q", state))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finishLocked(j, state, out, errText)
}

func (s *Store) finishLocked(j *Job, state State, out Outcome, errText string) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.outcome = out
	j.errText = errText
	j.finished = s.now()
	if j.key != "" && s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
	s.finished = append(s.finished, j)
	j.cancel() // release the context's resources; execution is over
}

// Cancel requests cancellation of the job with the given id: an active
// job flips to canceled immediately and its context is canceled so the
// runner (waiting for a worker or computing) unwinds at the next check;
// a finished job is left untouched. It returns the job's resulting state
// and whether the id was found.
func (s *Store) Cancel(id string) (State, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictExpiredLocked(s.now())
	j, ok := s.jobs[id]
	if !ok {
		return "", false
	}
	if !j.state.Terminal() {
		s.finishLocked(j, StateCanceled, Outcome{}, "canceled by client")
	}
	return j.state, true
}

// Gauges returns the current per-state occupancy and the cumulative
// eviction count.
func (s *Store) Gauges() Gauges {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictExpiredLocked(s.now())
	var g Gauges
	g.Expired = s.expired
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			g.Queued++
		case StateRunning:
			g.Running++
		case StateDone:
			g.Done++
		case StateFailed:
			g.Failed++
		case StateCanceled:
			g.Canceled++
		}
	}
	return g
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// evictExpiredLocked drops finished jobs whose TTL has elapsed. The
// finished slice is in finish order, so eviction stops at the first
// still-fresh record.
func (s *Store) evictExpiredLocked(now time.Time) {
	for len(s.finished) > 0 {
		j := s.finished[0]
		if now.Sub(j.finished) < s.ttl {
			return
		}
		s.evictLocked(j)
	}
}

// evictLocked removes one finished job (the head of the FIFO).
func (s *Store) evictLocked(j *Job) {
	delete(s.jobs, j.id)
	s.finished[0] = nil
	s.finished = s.finished[1:]
	s.expired++
}
