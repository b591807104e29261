// Dial-policy tests: the dial timeout is an option rather than a fixed
// package constant and bounds the handshake as well as the connect, a
// caller's context cancels in-flight dials, and a dial that fails partway
// down the worker list tears down the half-built fleet without leaking
// goroutines or sockets.
package wire_test

import (
	"context"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/transport/wire"
)

// seedOne hands every dialed worker seed 1.
var seedOne = wire.FleetConfig{SeedFor: func(int) uint64 { return 1 }}

// closedPort returns an address nothing listens on.
func closedPort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// muteWorker returns the address of a worker that accepts connections and
// reads whatever arrives but never answers: a peer that hangs mid-handshake.
// Each accepted connection is closed once its dialer closes it.
func muteWorker(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, c)
				c.Close()
			}()
		}
	}()
	return ln.Addr().String()
}

// dialWithin runs dial on its own goroutine and fails the test if it has not
// returned within limit; it returns dial's error.
func dialWithin(t *testing.T, limit time.Duration, dial func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- dial() }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		t.Fatalf("Dial still blocked after %v", limit)
		return nil
	}
}

// assertNoLeaks waits for the goroutine and fd counts to fall back to their
// values before a failed Dial.
func assertNoLeaks(t *testing.T, goroutines, fds int) {
	t.Helper()
	if !waitFor(3*time.Second, func() bool { return runtime.NumGoroutine() <= goroutines }) {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("failed dial leaked goroutines: %d > %d\n%s", runtime.NumGoroutine(), goroutines, buf[:n])
	}
	if runtime.GOOS == "linux" && !waitFor(3*time.Second, func() bool { return countFDs(t) <= fds }) {
		t.Fatalf("failed dial leaked fds: %d open, started with %d", countFDs(t), fds)
	}
}

// TestDialTimeoutOption: WithDialTimeout bounds both the connect retry loop
// (nothing listens) and the handshake (a worker accepts but never answers
// the Hello), so Dial fails within twice the timeout, names the address and
// leaves nothing behind.
func TestDialTimeoutOption(t *testing.T) {
	const timeout = 400 * time.Millisecond
	ins := wireInstance(20, 3, 501)
	for _, tc := range []struct{ name, addr string }{
		{"closed port", closedPort(t)},
		{"mute worker", muteWorker(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			goroutines, fds := runtime.NumGoroutine(), countFDs(t)
			start := time.Now()
			err := dialWithin(t, 5*time.Second, func() error {
				_, err := wire.Dial([]string{tc.addr}, ins, seedOne, nil, wire.WithDialTimeout(timeout))
				return err
			})
			if err == nil {
				t.Fatal("dial succeeded")
			}
			if elapsed := time.Since(start); elapsed > 2*timeout {
				t.Fatalf("dial took %v, over twice the %v timeout", elapsed, timeout)
			}
			if !strings.Contains(err.Error(), tc.addr) {
				t.Fatalf("error does not name the address: %v", err)
			}
			assertNoLeaks(t, goroutines, fds)
		})
	}
}

// TestDialContextCancellation: WithContext cancels a dial in its connect
// retry loop and in its handshake alike, promptly and with a named error.
func TestDialContextCancellation(t *testing.T) {
	ins := wireInstance(20, 3, 502)
	for _, tc := range []struct{ name, addr string }{
		{"closed port", closedPort(t)},
		{"mute worker", muteWorker(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			goroutines, fds := runtime.NumGoroutine(), countFDs(t)
			ctx, cancel := context.WithCancel(context.Background())
			canceled := make(chan time.Time, 1)
			time.AfterFunc(50*time.Millisecond, func() {
				canceled <- time.Now()
				cancel()
			})
			// Default 10s timeout: without the cancellation this blocks for
			// the full window, or for good at a mute worker.
			err := dialWithin(t, 5*time.Second, func() error {
				_, err := wire.Dial([]string{tc.addr}, ins, seedOne, nil, wire.WithContext(ctx))
				return err
			})
			if err == nil {
				t.Fatal("canceled dial succeeded")
			}
			if lag := time.Since(<-canceled); lag > time.Second {
				t.Fatalf("cancellation took %v to take effect", lag)
			}
			if !strings.Contains(err.Error(), "canceled") || !strings.Contains(err.Error(), tc.addr) {
				t.Fatalf("error does not surface the cancellation and the address: %v", err)
			}
			assertNoLeaks(t, goroutines, fds)
		})
	}
}

// TestDialPartialFailureCleanup: worker 1 accepts and completes its
// handshake, worker 2 does not exist. The failed Dial must close worker 1's
// connection (its serve goroutine exits on the synthetic stop) and leak no
// goroutines or FDs.
func TestDialPartialFailureCleanup(t *testing.T) {
	ins := wireInstance(20, 3, 503)
	good := startWorkers(t, 1)
	bad := closedPort(t)

	before := runtime.NumGoroutine()
	fdsBefore := countFDs(t)
	_, err := wire.Dial(append(good, bad), ins, seedOne, nil, wire.WithDialTimeout(200*time.Millisecond))
	if err == nil {
		t.Fatal("dial succeeded with a missing worker")
	}
	if !strings.Contains(err.Error(), bad) {
		t.Fatalf("error does not name the failing address: %v", err)
	}
	if !waitFor(3*time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("partial dial leaked goroutines: %d > %d\n%s", runtime.NumGoroutine(), before, buf[:n])
	}
	if runtime.GOOS == "linux" {
		// The worker listener from startWorkers is still open; allow it.
		if !waitFor(3*time.Second, func() bool { return countFDs(t) <= fdsBefore+1 }) {
			t.Fatalf("partial dial leaked fds: %d open, started with %d", countFDs(t), fdsBefore)
		}
	}
}
