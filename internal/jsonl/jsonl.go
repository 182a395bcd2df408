// Package jsonl is the record harness shared by the repository's JSONL wire
// formats (the trace event stream and the introspection snapshot stream):
// a schema header line, a buffered writer with a sticky error, and a
// damage-tolerant line reader that counts malformed lines instead of
// failing on them. It imports only the standard library, so any package
// may build on it.
package jsonl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Format names one wire format.
type Format struct {
	Name   string // the header's "format" discriminator, e.g. "ftmr-trace"
	Schema int    // the version written, and the newest one Read accepts
	Prefix string // what the format's error messages start with, e.g. "trace"
}

// header is the first line of a file.
type header struct {
	Format string `json:"format"`
	Schema int    `json:"schema"`
}

// Writer encodes one JSON record per line behind a buffer. Its error is
// sticky: after the first failure later writes are dropped, and Flush
// reports that failure.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewWriter returns a Writer on w that has already written f's header.
func (f Format) NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	s := &Writer{bw: bw, enc: json.NewEncoder(bw)}
	s.err = s.enc.Encode(header{Format: f.Name, Schema: f.Schema})
	return s
}

// Write encodes v as one line.
func (s *Writer) Write(v any) {
	if s.err == nil {
		s.err = s.enc.Encode(v)
	}
}

// Flush flushes the buffer and returns the first error the Writer met.
func (s *Writer) Flush() error {
	if err := s.bw.Flush(); s.err == nil {
		s.err = err
	}
	return s.err
}

// Report is the parse accounting of one Read: damaged lines are counted,
// not fatal, so a file cut short by a crash stays loadable and the caller
// decides whether the damage matters (Err).
type Report struct {
	Schema       int   // declared wire-format version (1 when no header line)
	Header       bool  // whether a header line was present
	Lines        int   // non-blank lines scanned, including the header
	BadLines     int   // malformed or unknown-kind lines skipped
	FirstBadLine int   // 1-based line number of the first bad line (0 = none)
	FirstBadErr  error // what was wrong with it

	prefix string
}

// Clean reports whether every scanned line decoded.
func (rr *Report) Clean() bool { return rr.BadLines == 0 }

// Err summarizes the damage as one error, or nil when the read was clean.
func (rr *Report) Err() error {
	if rr.Clean() {
		return nil
	}
	return fmt.Errorf("%s: %d of %d lines malformed (first at line %d: %v)",
		rr.prefix, rr.BadLines, rr.Lines, rr.FirstBadLine, rr.FirstBadErr)
}

// Read scans r line by line, skipping blank lines. A first line carrying
// f's header sets the report's schema; without one the file is schema 1
// and its first line is a record. Every record line goes to decode, and a
// decode error counts the line as bad. The error return is reserved for
// unreadable input: I/O failure, an oversized line, or a header declaring
// a schema newer than f.Schema.
func (f Format) Read(r io.Reader, decode func(raw []byte) error) (Report, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	rr := Report{Schema: 1, prefix: f.Prefix}
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		rr.Lines++
		if rr.Lines == 1 {
			var hdr header
			if err := json.Unmarshal(raw, &hdr); err == nil && hdr.Format == f.Name {
				if hdr.Schema > f.Schema {
					return rr, fmt.Errorf("%s: file declares schema v%d, this reader understands <= v%d", f.Prefix, hdr.Schema, f.Schema)
				}
				rr.Header = true
				rr.Schema = hdr.Schema
				continue
			}
		}
		if err := decode(raw); err != nil {
			rr.BadLines++
			if rr.FirstBadLine == 0 {
				rr.FirstBadLine = line
				rr.FirstBadErr = fmt.Errorf("jsonl line %d: %w", line, err)
			}
		}
	}
	return rr, sc.Err()
}

// ReadFile runs read over the named file.
func ReadFile[T, R any](path string, read func(io.Reader) (T, R, error)) (T, R, error) {
	f, err := os.Open(path)
	if err != nil {
		var t T
		var r R
		return t, r, err
	}
	defer f.Close()
	return read(f)
}
