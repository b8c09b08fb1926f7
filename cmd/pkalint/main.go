// Command pkalint runs the repo's invariant analyzers (internal/analysis)
// as a `go vet` tool:
//
//	go build -o /tmp/pkalint ./cmd/pkalint
//	go vet -vettool=/tmp/pkalint ./...
//
// cmd/go hands the tool one .cfg file per package (absolute file list,
// import map, export-data paths) after the -V=full and -flags handshakes.
// Findings print as file:line:col: message [analyzer], and the run exits
// 2 when any finding survives suppression.
package main

import (
	"fmt"
	"os"
	"strings"

	"pka/internal/analysis"
)

const version = "v1.0.0"

func main() {
	args := os.Args[1:]
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			// cmd/go's tool-ID handshake: "<name> version <semver>".
			fmt.Printf("pkalint version %s\n", version)
			return
		case "-flags", "--flags":
			// cmd/go asks which analyzer flags the tool accepts: none.
			fmt.Println("[]")
			return
		case "-h", "-help", "--help":
			fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(which pkalint) [packages]\n\nAnalyzers:\n")
			for _, an := range analysis.Analyzers() {
				fmt.Fprintf(os.Stderr, "  %-12s %s\n", an.Name, an.Doc)
			}
			os.Exit(0)
		}
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which pkalint) [packages]")
		os.Exit(1)
	}
	os.Exit(runVetTool(args[0]))
}
