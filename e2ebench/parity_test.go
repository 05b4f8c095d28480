package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/p2pgossip/update/internal/wal"
)

// daemonFlagFields maps each cmd/pushpulld flag that shapes replica
// behaviour to its replicaOptions field.
var daemonFlagFields = map[string]string{
	"fanout":              "Fanout",
	"pf":                  "PF",
	"pull-interval":       "PullInterval",
	"pull-attempts":       "PullAttempts",
	"acks":                "Acks",
	"list-max":            "ListMax",
	"janitor-interval":    "JanitorInterval",
	"tombstone-retention": "TombstoneRetention",
	"key-ttl":             "KeyTTL",
	"snapshot-catchup":    "SnapshotCatchUp",
	"fsync":               "Fsync",
	"fsync-interval":      "FsyncInterval",
	"wal-segment":         "WALSegment",
	"wal-checkpoint":      "WALCheckpoint",
}

// daemonFlagsElsewhere are the flags the benchmark sets per replica
// instead (addresses, peers, directories, the fixed engine seed) or that
// only matter without a WAL.
var daemonFlagsElsewhere = map[string]bool{
	"http": true, "gossip": true, "peers": true, "seed": true,
	"snapshot": true, "wal-dir": true, "strict-restore": true,
}

// TestDaemonParity parses the flag defaults in cmd/pushpulld/main.go, the
// way internal/docscheck reads source, and fails when daemonDefaults
// drifts from them or the daemon grows a flag nobody classified.
func TestDaemonParity(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("..", "cmd", "pushpulld", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if recv, ok := sel.X.(*ast.Ident); !ok || recv.Name != "fs" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, _ := strconv.Unquote(lit.Value)
		seen[name] = true
		field, ok := daemonFlagFields[name]
		if !ok {
			if !daemonFlagsElsewhere[name] {
				t.Errorf("daemon flag -%s is not classified: map it to a replicaOptions field or list it as set elsewhere", name)
			}
			return true
		}
		want, err := evalDefault(call.Args[1])
		if err != nil {
			t.Errorf("flag -%s: %v", name, err)
			return true
		}
		if got := fieldValue(reflect.ValueOf(daemonDefaults).FieldByName(field)); got != want {
			t.Errorf("daemonDefaults.%s = %v, daemon flag -%s defaults to %v", field, got, name, want)
		}
		return true
	})
	for name := range daemonFlagFields {
		if !seen[name] {
			t.Errorf("daemon no longer defines -%s", name)
		}
	}
}

// fieldValue normalises a replicaOptions field for comparison.
func fieldValue(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		return v.Int()
	case reflect.Float64:
		return v.Float()
	case reflect.Bool:
		return v.Bool()
	case reflect.String:
		return v.String()
	}
	return fmt.Sprintf("unsupported kind %v", v.Kind())
}

// evalDefault evaluates the constant expressions the daemon uses as flag
// defaults: literals, true/false, time units, products, and the wal
// package defaults.
func evalDefault(e ast.Expr) (any, error) {
	switch e := e.(type) {
	case *ast.BasicLit:
		switch e.Kind {
		case token.INT:
			return strconv.ParseInt(e.Value, 0, 64)
		case token.FLOAT:
			return strconv.ParseFloat(e.Value, 64)
		case token.STRING:
			return strconv.Unquote(e.Value)
		}
	case *ast.Ident:
		switch e.Name {
		case "true":
			return true, nil
		case "false":
			return false, nil
		}
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			consts := map[string]int64{
				"time.Millisecond":        int64(time.Millisecond),
				"time.Second":             int64(time.Second),
				"time.Minute":             int64(time.Minute),
				"time.Hour":               int64(time.Hour),
				"wal.DefaultSyncInterval": int64(wal.DefaultSyncInterval),
				"wal.DefaultSegmentBytes": int64(wal.DefaultSegmentBytes),
			}
			if v, ok := consts[x.Name+"."+e.Sel.Name]; ok {
				return v, nil
			}
		}
	case *ast.BinaryExpr:
		if e.Op == token.MUL {
			a, err := evalDefault(e.X)
			if err != nil {
				return nil, err
			}
			b, err := evalDefault(e.Y)
			if err != nil {
				return nil, err
			}
			ai, aok := a.(int64)
			bi, bok := b.(int64)
			if aok && bok {
				return ai * bi, nil
			}
		}
	}
	return nil, fmt.Errorf("cannot evaluate default %T", e)
}
