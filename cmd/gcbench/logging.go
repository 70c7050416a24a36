package main

import (
	"flag"
	"log/slog"
	"os"
)

// verbosity is the shared -v/-quiet flag pair. Informational messages
// go through slog to stderr, so stdout stays machine-parseable for
// scripts regardless of the chosen level.
type verbosity struct {
	verbose *bool
	quiet   *bool
}

// verbosityFlags registers -v and -quiet on fs. Subcommands that
// already had a -quiet flag keep its exact meaning (suppress progress
// output); -v adds structured per-event logging.
func verbosityFlags(fs *flag.FlagSet) *verbosity {
	return &verbosity{
		verbose: fs.Bool("v", false, "verbose: structured per-event logs on stderr"),
		quiet:   fs.Bool("quiet", false, "suppress progress output"),
	}
}

// setup installs the process-wide slog default and returns its level.
func (v *verbosity) setup() slog.Level {
	level := slog.LevelInfo
	if *v.verbose {
		level = slog.LevelDebug
	}
	if *v.quiet {
		level = slog.LevelWarn
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})))
	return level
}
