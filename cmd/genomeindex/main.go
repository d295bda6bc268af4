// Command genomeindex manages persistent genome seed indexes: build
// once from a FASTA reference, then hand the index to offtarget (or
// the scan service) so repeated guide queries skip the genome sweep
// entirely. The index file is self-describing and checksummed. A query
// checks only the parts of the file it reads; validate and inspect
// read and check all of it, and validate additionally proves it still
// matches a given reference byte for byte.
//
// Usage:
//
//	genomeindex build -genome genome.fa -o genome.csix [-seed-len 10]
//	genomeindex validate -index genome.csix [-genome genome.fa]
//	genomeindex inspect -index genome.csix
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/cap-repro/crisprscan"
	"github.com/cap-repro/crisprscan/internal/seedindex"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "genomeindex: %v\n", err)
		os.Exit(1)
	}
}

// run dispatches one subcommand; it is the whole CLI, kept flag.Parse-
// free at the top level so tests can drive it directly.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		usage(stderr)
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "build":
		return runBuild(args[1:], stdout)
	case "validate":
		return runValidate(args[1:], stdout)
	case "inspect":
		return runInspect(args[1:], stdout)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return nil
	default:
		usage(stderr)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  genomeindex build -genome genome.fa -o genome.csix [-seed-len 10]
  genomeindex validate -index genome.csix [-genome genome.fa]
  genomeindex inspect -index genome.csix`)
}

func runBuild(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	genomePath := fs.String("genome", "", "reference genome FASTA (required)")
	outPath := fs.String("o", "", "output index path (required)")
	seedLen := fs.Int("seed-len", 0, "seed k-mer length (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *genomePath == "" {
		return fmt.Errorf("build: missing -genome")
	}
	if *outPath == "" {
		return fmt.Errorf("build: missing -o")
	}
	g, err := crisprscan.LoadGenome(*genomePath)
	if err != nil {
		return err
	}
	ix, err := seedindex.Build(g, *seedLen)
	if err != nil {
		return err
	}
	if err := ix.WriteFile(*outPath); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %d chromosomes, %d bp, seed length %d, %d keys, %d postings\n",
		*outPath, len(ix.Chroms), g.TotalLen(), ix.SeedLen, ix.Keys(), ix.Postings())
	return nil
}

func runValidate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	indexPath := fs.String("index", "", "index file to validate (required)")
	genomePath := fs.String("genome", "", "reference FASTA to validate against (optional)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexPath == "" {
		return fmt.Errorf("validate: missing -index")
	}
	// Load checks the header, TOC and planes; Verify reads the seed
	// table and checks every block checksum and the table's structure.
	// A corrupt, truncated or version-skewed file fails here before any
	// genome comparison.
	ix, err := loadVerified(*indexPath)
	if err != nil {
		return err
	}
	defer ix.Close()
	if *genomePath != "" {
		g, err := crisprscan.LoadGenome(*genomePath)
		if err != nil {
			return err
		}
		if err := ix.ValidateGenome(g); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: valid, matches %s\n", *indexPath, *genomePath)
		return nil
	}
	fmt.Fprintf(stdout, "%s: valid\n", *indexPath)
	return nil
}

func runInspect(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	indexPath := fs.String("index", "", "index file to inspect (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexPath == "" {
		return fmt.Errorf("inspect: missing -index")
	}
	ix, err := loadVerified(*indexPath)
	if err != nil {
		return err
	}
	defer ix.Close()
	fmt.Fprintf(stdout, "seed length\t%d\nchromosomes\t%d\nkeys\t%d\npostings\t%d\n",
		ix.SeedLen, len(ix.Chroms), ix.Keys(), ix.Postings())
	fmt.Fprintln(stdout, "name\tlength\tsha256")
	for i := range ix.Chroms {
		c := &ix.Chroms[i]
		fmt.Fprintf(stdout, "%s\t%d\t%x\n", c.Name, c.SeqLen, c.SeqSHA[:8])
	}
	return nil
}

// loadVerified loads an index and proves the whole file (Verify).
func loadVerified(path string) (*seedindex.Index, error) {
	ix, err := seedindex.Load(path)
	if err != nil {
		return nil, err
	}
	if err := ix.Verify(); err != nil {
		ix.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ix, nil
}
