package wire

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/internal/backoff"
	"repro/internal/metrics"
)

// codecLatencyBuckets spans sub-microsecond small frames through multi-ms
// instance encodes.
var codecLatencyBuckets = metrics.ExpBuckets(1e-7, 4, 12) // 100ns .. ~1.7s

// wireMetrics holds the transport's metric handles; every handle is nil-safe,
// so an unmetered fleet or session costs one nil check per record site.
type wireMetrics struct {
	frames      *metrics.Counter
	bytes       *metrics.Counter
	dropped     *metrics.Counter
	reconnects  *metrics.Counter
	frameErrors *metrics.Counter
	encodeDur   *metrics.Histogram
	decodeDur   *metrics.Histogram
}

func newWireMetrics(reg *metrics.Registry) wireMetrics {
	if reg == nil {
		return wireMetrics{}
	}
	reg.SetHelp("wire_frames_total", "Frames sent and received on worker connections.")
	reg.SetHelp("wire_bytes_total", "Frame bytes (header included) sent and received on worker connections.")
	reg.SetHelp("wire_dropped_total", "Messages swallowed because the worker connection was dead.")
	reg.SetHelp("wire_reconnects_total", "Extra dial attempts needed before a worker accepted.")
	reg.SetHelp("wire_frame_errors_total", "Frames rejected for integrity failures (bad magic, version skew, CRC mismatch, undecodable payload). Each one kills its connection.")
	reg.SetHelp("wire_encode_seconds", "Payload encode latency per outgoing frame.")
	reg.SetHelp("wire_decode_seconds", "Payload decode latency per incoming frame.")
	return wireMetrics{
		frames:      reg.Counter("wire_frames_total"),
		bytes:       reg.Counter("wire_bytes_total"),
		dropped:     reg.Counter("wire_dropped_total"),
		reconnects:  reg.Counter("wire_reconnects_total"),
		frameErrors: reg.Counter("wire_frame_errors_total"),
		encodeDur:   reg.Histogram("wire_encode_seconds", codecLatencyBuckets),
		decodeDur:   reg.Histogram("wire_decode_seconds", codecLatencyBuckets),
	}
}

// defaultDialTimeout bounds the whole retry loop for one address, and then
// the handshake on the connection it made; within the loop, attempts follow
// dialBackoff. Workers are usually started moments before the master, so the
// common case is one or two attempts. A server multiplexing many jobs tunes
// it per dial (WithDialTimeout) and cancels in-flight dials on shutdown
// (WithContext).
const defaultDialTimeout = 10 * time.Second

// dialBackoff is the shared retry policy for every wire connect loop:
// the master's Dial out to workers and the elastic worker's JoinFleet in
// to the master. The jitter keeps a fleet of workers rejoining after a
// master restart from hammering the listener in lockstep.
var dialBackoff = backoff.Policy{
	Base:   25 * time.Millisecond,
	Cap:    800 * time.Millisecond,
	Jitter: 0.25,
}

// DialOption configures Dial and JoinFleet.
type DialOption func(*dialConfig)

type dialConfig struct {
	timeout time.Duration
	ctx     context.Context
}

func newDialConfig(opts []DialOption) dialConfig {
	cfg := dialConfig{timeout: defaultDialTimeout, ctx: context.Background()}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithDialTimeout bounds the connect retry loop for each address, and then
// the handshake on the connection it made (default 10s each). Non-positive
// values keep the default.
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithContext cancels in-flight dials (including their backoff sleeps) and
// handshakes when ctx is done — the seam a shutting-down server uses so a
// connect to a slow, mute or vanished worker never outlives it.
func WithContext(ctx context.Context) DialOption {
	return func(c *dialConfig) {
		if ctx != nil {
			c.ctx = ctx
		}
	}
}

// dialRetry dials addr with the shared jittered backoff until cfg.timeout;
// shared by the master's Dial (out to listening workers) and the elastic
// worker's JoinFleet (in to a listening master).
func dialRetry(cfg dialConfig, addr string, mx wireMetrics) (net.Conn, error) {
	ctx, cancel := context.WithDeadline(cfg.ctx, time.Now().Add(cfg.timeout))
	defer cancel()
	bo := dialBackoff.Timer(backoff.Seed(addr))
	var lastErr error
	var d net.Dialer
	for attempt := 0; ; attempt++ {
		c, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if cfg.ctx.Err() != nil {
			// The caller's context, not the per-address deadline: a shutdown
			// mid-dial reports itself rather than a generic timeout.
			return nil, fmt.Errorf("dial canceled: %w", cfg.ctx.Err())
		}
		if attempt > 0 {
			mx.reconnects.Inc()
		}
		wait := bo.Next()
		if deadline, ok := ctx.Deadline(); ok && time.Now().Add(wait).After(deadline) {
			return nil, lastErr
		}
		if err := backoff.Sleep(ctx, wait); err != nil {
			if cfg.ctx.Err() != nil {
				return nil, fmt.Errorf("dial canceled: %w", cfg.ctx.Err())
			}
			return nil, lastErr
		}
	}
}
