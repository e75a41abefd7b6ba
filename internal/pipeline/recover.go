package pipeline

import (
	"context"
	"fmt"
	"runtime/debug"

	"repro/internal/graph"
)

// PanicError is what a recovered panic in pluggable code — a registered
// Orderer, a BatchRunner item, a service job — is converted to: a per-call
// error carrying the panic value and the goroutine stack at recovery, so
// one broken algorithm costs its own candidate/item/job and nothing else.
// The engine's contract (see Orderer) is that third-party code panicking
// is never allowed to kill a worker pool, a batch barrier or a daemon.
type PanicError struct {
	// Op names what panicked ("orderer MYALG", "batch item 3", "job x1").
	Op string
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pipeline: panic in %s: %v", e.Op, e.Value)
}

// Recovered converts a non-nil recover() value into a *PanicError,
// capturing the current goroutine's stack. Call it directly inside the
// deferred function so the stack still shows the panic site.
func Recovered(op string, p any) *PanicError {
	return &PanicError{Op: op, Value: p, Stack: debug.Stack()}
}

// SafeOrder invokes o.Order with panic isolation: a panic inside the
// Orderer returns as a *PanicError instead of unwinding into the caller.
// Every path that runs registry code — the portfolio engine's candidates,
// Order's per-component calls (Session.Order and batch items) — goes
// through here, which is what makes registering a third-party Orderer
// safe for a daemon.
func SafeOrder(ctx context.Context, o Orderer, name string, g *graph.Graph, req *OrderRequest) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res = Result{}
			err = Recovered("orderer "+name, p)
		}
	}()
	return o.Order(ctx, g, req)
}
