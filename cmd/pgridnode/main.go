// Command pgridnode runs one live replica over TCP, suitable for trying the
// protocol across real processes or machines.
//
// Start a few nodes and wire them together:
//
//	pgridnode -listen 127.0.0.1:7001
//	pgridnode -listen 127.0.0.1:7002 -peers 127.0.0.1:7001
//	pgridnode -listen 127.0.0.1:7003 -peers 127.0.0.1:7001,127.0.0.1:7002
//
// A node is diskless unless given -wal-dir: then every write is logged
// before it is acknowledged, and restarting on the same address with the
// same directory recovers the node's state and continues its sequence.
//
// Then type commands on stdin:
//
//	put <key> <value>   publish an update
//	del <key>           publish a tombstone
//	get <key>           read the local winning revision
//	query <key>         consult 3 replicas, return the freshest revision
//	keys                list live keys
//	peers               list known replicas
//	pull                pull immediately
//	quit                exit
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	pushpull "github.com/p2pgossip/update"
	"github.com/p2pgossip/update/internal/pfparse"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pgridnode:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("pgridnode", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:0", "address to listen on")
	peers := fs.String("peers", "", "comma-separated bootstrap peer addresses")
	fanout := fs.Int("fanout", 5, "push fanout")
	pfSpec := fs.String("pf", "geom:0.9", "forwarding probability schedule")
	pullSecs := fs.Duration("pull-interval", 0, "anti-entropy period (0 = default 30s)")
	walDir := fs.String("wal-dir", "", "write-ahead-log directory: every write is durable before it is acknowledged, and a restart recovers the node's state from it (empty = diskless)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	schedule, err := pfparse.Parse(*pfSpec)
	if err != nil {
		return err
	}
	opts := []pushpull.Option{
		pushpull.WithTCP(*listen),
		pushpull.WithFanout(*fanout),
		pushpull.WithPF(func() pushpull.PFFunc { return schedule }),
	}
	if *pullSecs > 0 {
		opts = append(opts, pushpull.WithPullInterval(*pullSecs))
	}
	if *peers != "" {
		opts = append(opts, pushpull.WithPeers(strings.Split(*peers, ",")...))
	}
	if *walDir != "" {
		walLog, err := pushpull.OpenWAL(pushpull.WALOptions{Dir: *walDir})
		if err != nil {
			return fmt.Errorf("open wal: %w", err)
		}
		defer walLog.Close()
		opts = append(opts, pushpull.WithWAL(walLog))
	}
	node, err := pushpull.Open(opts...)
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = node.Close(ctx)
	}()

	fmt.Fprintf(out, "replica listening on %s (%d known peers)\n",
		node.Addr(), len(node.Peers()))
	if rec, ok := node.WALRecovery(); ok && rec.Restored() > 0 {
		fmt.Fprintf(out, "recovered %d updates from %s\n", rec.Restored(), *walDir)
	}
	return repl(node, in, out)
}

func repl(n *pushpull.Node, in io.Reader, out io.Writer) error {
	ctx := context.Background()
	scanner := bufio.NewScanner(in)
	for scanner.Scan() {
		fields := strings.Fields(scanner.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "put":
			if len(fields) < 3 {
				fmt.Fprintln(out, "usage: put <key> <value>")
				continue
			}
			u, err := n.Publish(ctx, fields[1], []byte(strings.Join(fields[2:], " ")))
			if err != nil {
				fmt.Fprintf(out, "publish failed: %v\n", err)
				continue
			}
			fmt.Fprintf(out, "published %s (version %s)\n", u.ID(), u.Version)
		case "del":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: del <key>")
				continue
			}
			u, err := n.Delete(ctx, fields[1])
			if err != nil {
				fmt.Fprintf(out, "delete failed: %v\n", err)
				continue
			}
			fmt.Fprintf(out, "deleted via %s\n", u.ID())
		case "get":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: get <key>")
				continue
			}
			if rev, ok := n.Get(fields[1]); ok {
				fmt.Fprintf(out, "%s = %q (version %s)\n", fields[1], rev.Value, rev.Version)
			} else {
				fmt.Fprintf(out, "%s not found\n", fields[1])
			}
		case "query":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: query <key>")
				continue
			}
			qctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			outcome, err := n.Query(qctx, fields[1], 3)
			cancel()
			if err != nil && !errors.Is(err, pushpull.ErrNoPeers) {
				fmt.Fprintf(out, "query failed: %v\n", err)
				continue
			}
			if outcome.Found {
				fmt.Fprintf(out, "%s = %q (%d responses, version %s)\n",
					fields[1], outcome.Revision.Value, outcome.Responses,
					outcome.Revision.Version)
			} else {
				fmt.Fprintf(out, "%s not found (%d responses)\n", fields[1], outcome.Responses)
			}
		case "keys":
			fmt.Fprintln(out, strings.Join(n.Keys(), " "))
		case "peers":
			fmt.Fprintln(out, strings.Join(n.Peers(), " "))
		case "pull":
			if err := n.Pull(ctx); err != nil && !errors.Is(err, pushpull.ErrNoPeers) {
				fmt.Fprintf(out, "pull failed: %v\n", err)
				continue
			}
			fmt.Fprintln(out, "pull issued")
		case "quit", "exit":
			return nil
		default:
			fmt.Fprintf(out, "unknown command %q\n", fields[0])
		}
	}
	return scanner.Err()
}
