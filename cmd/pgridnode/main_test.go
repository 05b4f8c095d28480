package main

import (
	"net"
	"strings"
	"testing"
)

func TestNodeREPLCommands(t *testing.T) {
	script := strings.Join([]string{
		"put city Lausanne",
		"get city",
		"query city",
		"query",
		"keys",
		"peers",
		"pull",
		"del city",
		"get city",
		"badcmd",
		"put",
		"del",
		"get",
		"quit",
	}, "\n")
	var out strings.Builder
	err := run([]string{"-listen", "127.0.0.1:0", "-pull-interval", "50ms"},
		strings.NewReader(script), &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"replica listening on",
		"published",
		`city = "Lausanne"`,
		"usage: query <key>",
		"deleted via",
		"city not found",
		`unknown command "badcmd"`,
		"usage: put <key> <value>",
		"usage: del <key>",
		"usage: get <key>",
		"pull issued",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestNodeBootstrapPeers(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-listen", "127.0.0.1:0", "-peers", "10.0.0.1:1,10.0.0.2:2"},
		strings.NewReader("peers\nquit\n"), &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "10.0.0.1:1 10.0.0.2:2") {
		t.Fatalf("bootstrap peers missing:\n%s", out.String())
	}
}

func TestNodeBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-pf", "junk"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("bad schedule should error")
	}
	if err := run([]string{"-listen", "999.999.999.999:1"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("bad listen address should error")
	}
}

// TestNodeSnapshotPersistence restarts a node on the same address and
// -wal-dir: the second process recovers the first one's write from the log,
// and its next write continues the sequence instead of reusing it.
func TestNodeSnapshotPersistence(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-listen", addr, "-wal-dir", dir}

	var out strings.Builder
	err = run(args, strings.NewReader("put motto persistence\nquit\n"), &out)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if want := "published " + addr + "/1 "; !strings.Contains(out.String(), want) {
		t.Fatalf("first write not %q:\n%s", want, out.String())
	}
	// Second process recovers the state from the log.
	out.Reset()
	err = run(args, strings.NewReader("get motto\nput motto again\nquit\n"), &out)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"recovered 1 updates from " + dir,
		`motto = "persistence"`,
		"published " + addr + "/2 ",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}
