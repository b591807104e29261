// Command mkpworker runs one slave of the parallel cooperative tabu search
// as a standalone OS process. It listens on a TCP address, accepts a master
// (mkpsolve -workers), receives its node number, seed and the problem
// instance in the wire handshake, and then runs the ordinary slave loop —
// wait for a round order, search, report — until the master stops it or the
// connection drops.
//
//	mkpworker -listen :7001            # serve masters until killed
//	mkpworker -listen 127.0.0.1:0 -once  # one run on an ephemeral port, then exit
//	mkpworker -join host:9001            # dial an elastic fleet master instead
//	mkpworker -join host:9001 -leave-after 50  # spot-style: serve 50 rounds, leave
//
// The worker needs no problem file and no per-run flags: everything a run
// depends on arrives in the handshake, so one fleet of workers can serve many
// differently-configured masters in sequence. In -join mode the direction
// reverses: the worker dials the fleet master (mkpsolve -elastic), is assigned
// a node id in the join handshake, and may come and go while the run is live.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/mkp"
	"repro/internal/tabu"
	"repro/internal/transport/proto"
	"repro/internal/transport/wire"
)

func main() {
	var (
		listen     = flag.String("listen", ":7001", "TCP address to accept masters on (port 0 picks an ephemeral port)")
		once       = flag.Bool("once", false, "exit after serving one master instead of accepting the next")
		join       = flag.String("join", "", "elastic mode: dial this fleet master address instead of listening")
		name       = flag.String("name", "", "member name reported in the elastic join handshake (default host:pid)")
		leaveAfter = flag.Int("leave-after", 0, "elastic mode: leave gracefully after serving this many rounds (0 = serve until stopped)")
		rejoin     = flag.Bool("rejoin", false, "elastic mode: when the connection drops (chaos, master restart), keep rejoining under a fresh node id until the master is gone for good")
		forge      = flag.Bool("forge", false, "elastic mode: answer every round with a forged result (hostile-worker testing; the master must reject and quarantine this worker)")
		algos      = flag.String("algos", "tabu,repair,assim", "portfolio algorithms this worker advertises (comma-separated)")
	)
	flag.Parse()

	// The algorithm a slave runs each round arrives inside the strategy over
	// the v3 wire, so every worker binary can execute the whole portfolio;
	// -algos is the worker's advertisement of that set. Validating it here
	// catches a fleet config naming an algorithm this build does not know,
	// and the log line gives smoke harnesses a stable place to audit what a
	// mixed fleet claims to run.
	advertised, err := tabu.ParsePortfolio(*algos)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mkpworker:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mkpworker: algorithms %s\n", tabu.FormatPortfolio(advertised))

	if *join != "" {
		if err := joinLoop(*join, *name, *leaveAfter, *rejoin, *forge); err != nil {
			fmt.Fprintln(os.Stderr, "mkpworker:", err)
			os.Exit(1)
		}
		return
	}
	if *rejoin || *forge {
		fmt.Fprintln(os.Stderr, "mkpworker: -rejoin and -forge need elastic mode (-join)")
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mkpworker:", err)
		os.Exit(1)
	}
	defer ln.Close()
	// The smoke harness parses this line to discover ephemeral ports; keep
	// its shape stable.
	fmt.Fprintf(os.Stderr, "mkpworker: listening on %s\n", ln.Addr())

	for {
		conn, err := ln.Accept()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mkpworker:", err)
			os.Exit(1)
		}
		serve(conn)
		if *once {
			return
		}
	}
}

// joinLoop runs elastic memberships: dial, join, serve (honestly or forging),
// and — under -rejoin — replace a dropped connection with a fresh join under
// a fresh node id until the master stays unreachable past the patience
// window. A single-shot join (-rejoin off) returns the first error.
func joinLoop(addr, name string, leaveAfter int, rejoin, forge bool) error {
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	const patience = 15 * time.Second
	lastServed := time.Now()
	for attempt := 0; ; attempt++ {
		memberName := name
		if rejoin && attempt > 0 {
			memberName = fmt.Sprintf("%s~%d", name, attempt)
		}
		err := joinFleet(addr, memberName, leaveAfter, forge)
		if !rejoin {
			return err
		}
		if err == nil {
			lastServed = time.Now()
		} else if time.Since(lastServed) > patience {
			return fmt.Errorf("master unreachable for %v: %w", patience, err)
		}
		// A graceful departure under -rejoin also re-enlists: the run may
		// still be live and short on workers (chaos testing wants churn).
		time.Sleep(200 * time.Millisecond)
	}
}

// joinFleet runs one elastic membership to completion: dial, join, serve the
// slave loop (gossip absorption, optional graceful leave), exit when the run
// stops or the leave budget drains. The member sends nothing to ask for
// work: once its own result is in, the master may lend it a straggler's slot.
func joinFleet(addr, name string, leaveAfter int, forge bool) error {
	sess, hello, err := wire.JoinFleet(addr, name, nil, wire.WithDialTimeout(5*time.Second))
	if err != nil {
		return err
	}
	defer sess.Close()
	fmt.Fprintf(os.Stderr, "mkpworker: joined fleet %s as node %d (epoch %d, %d live) for instance %s (%s)\n",
		addr, hello.Node, hello.Epoch, len(hello.Members), hello.Ins.Name, hello.Ins.Size())
	if forge {
		forgeSlave(sess, hello)
	} else {
		core.ElasticSlave(sess, hello.Node, hello.Ins, hello.Seed, core.ElasticOptions{LeaveAfter: leaveAfter})
	}
	fmt.Fprintf(os.Stderr, "mkpworker: node %d departed\n", hello.Node)
	return nil
}

// forgeSlave is the hostile worker: it answers every round order instantly
// with a trivially feasible empty assignment claiming an absurd objective
// value. Exercises the master's untrusted-result path end to end — every
// reply must be rejected by revalidation, counted on
// core_result_rejects_total, and the worker quarantined after the strike
// threshold.
func forgeSlave(sess *wire.Session, hello proto.Hello) {
	for {
		msg := sess.Recv(hello.Node)
		switch msg.Tag {
		case proto.TagStop:
			return
		case proto.TagStart:
			start, ok := msg.Payload.(proto.Start)
			if !ok {
				continue
			}
			forged := &tabu.Result{
				Best:  mkp.Solution{X: bitset.New(hello.Ins.N), Value: 1e12},
				Moves: 1,
			}
			sess.Send(hello.Node, 0, proto.TagResult,
				proto.Result{Slot: start.Slot, Node: hello.Node, Round: start.Round, Res: forged},
				proto.SolutionSize(hello.Ins.N))
		}
	}
}

// serve runs one master's session to completion. Handshake errors are
// reported and the connection dropped; the accept loop then waits for the
// next master, so a malformed or version-skewed probe cannot take the
// worker down.
func serve(conn net.Conn) {
	defer conn.Close()
	sess, hello, err := wire.Accept(conn, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mkpworker: handshake:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "mkpworker: serving node %d for instance %s (%s)\n",
		hello.Node, hello.Ins.Name, hello.Ins.Size())
	core.Slave(sess, hello.Node, hello.Ins, hello.Seed)
	fmt.Fprintf(os.Stderr, "mkpworker: node %d done\n", hello.Node)
}
