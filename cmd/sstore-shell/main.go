// Command sstore-shell is an interactive SQL shell over an embedded
// S-Store engine: each statement runs as its own OLTP transaction.
// Streams, windows, and indexes can be created with the engine's DDL
// dialect; \-commands inspect the catalog.
//
// Usage:
//
//	sstore-shell [-partitions n] [-f script.sql]
//
// Commands:
//
//	\tables          list tables, streams, and windows
//	\stats           engine counters
//	\quit            exit
//
// Anything else is parsed as SQL (single statement per line;
// semicolons optional).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sstore"
)

func main() {
	partitions := flag.Int("partitions", 1, "number of partitions")
	script := flag.String("f", "", "run statements from file, then exit")
	flag.Parse()

	eng, err := sstore.Open(sstore.Config{Partitions: *partitions})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sstore-shell:", err)
		os.Exit(1)
	}
	defer eng.Close()

	var in io.Reader = os.Stdin
	interactive := true
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sstore-shell:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
		interactive = false
	}

	if interactive {
		fmt.Println("sstore shell — SQL per line, \\tables, \\stats, \\quit")
	}
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		if interactive {
			fmt.Print("sstore> ")
		}
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if !command(eng, line) {
				return
			}
			continue
		}
		run(eng, line)
	}
	if err := scanner.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "sstore-shell:", err)
		os.Exit(1)
	}
}

// command handles \-commands; it returns false on \quit.
func command(eng *sstore.Engine, line string) bool {
	switch strings.Fields(line)[0] {
	case "\\quit", "\\q":
		return false
	case "\\stats":
		fmt.Printf("%+v\n", eng.Stats())
	case "\\tables":
		infos, err := eng.Tables(0)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		if len(infos) == 0 {
			fmt.Println("  (empty catalog)")
		}
		for _, t := range infos {
			fmt.Printf("  %-6s %-20s %6d rows  %s\n", t.Kind, t.Name, t.Rows, t.Schema)
		}
	default:
		fmt.Printf("unknown command %s\n", line)
	}
	return true
}

// run executes one statement on partition 0 (DDL goes to all
// partitions).
func run(eng *sstore.Engine, stmt string) {
	upper := strings.ToUpper(stmt)
	if strings.HasPrefix(upper, "CREATE") {
		if err := eng.ExecDDL(stmt); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println("ok")
		return
	}
	res, err := eng.Query(0, stmt)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if len(res.Columns) > 0 {
		fmt.Println(strings.Join(res.Columns, " | "))
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			fmt.Println(strings.Join(parts, " | "))
		}
		fmt.Printf("(%d rows)\n", len(res.Rows))
		return
	}
	fmt.Printf("ok (%d rows affected)\n", res.RowsAffected)
}
