package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// ChromeBytes renders the trace in Chrome's trace_event JSON format
// (complete "X" events, one per ended span), loadable in chrome://tracing
// and Perfetto. The output is canonical: spans are ordered by (start, ID),
// labels keep insertion order, and numbers use fixed-precision formatting,
// so two identical traces serialise to identical bytes.
//
// Each root span and its descendants share a tid (the root's ID), giving
// every task lifecycle its own lane in the viewer.
func (t *Tracer) ChromeBytes() []byte {
	var buf bytes.Buffer
	if err := t.writeChrome(&buf); err != nil {
		panic("trace: chrome export: " + err.Error()) // bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// writeChrome writes ChromeBytes' output to w.
func (t *Tracer) writeChrome(w io.Writer) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	for _, sp := range t.Spans() {
		if !sp.ended {
			continue
		}
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		if err := writeChromeEvent(w, sp); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n],\"displayTimeUnit\":\"ms\"}\n")
	return err
}

func writeChromeEvent(w io.Writer, sp *Span) error {
	name, err := json.Marshal(sp.name)
	if err != nil {
		return err
	}
	cat, err := json.Marshal(sp.substrate)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"span\":%d,\"parent\":%d",
		name, cat, micros(sp.start), micros(sp.end-sp.start), sp.root, sp.id, sp.parent); err != nil {
		return err
	}
	for _, l := range sp.labels {
		k, err := json.Marshal(l.Key)
		if err != nil {
			return err
		}
		v, err := json.Marshal(l.Value)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, ",%s:%s", k, v); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, "}}")
	return err
}

// micros renders a duration as microseconds with fixed millinanosecond
// precision — exact for any time.Duration, so formatting is canonical.
func micros(d time.Duration) string {
	ns := d.Nanoseconds()
	return fmt.Sprintf("%d.%03d", ns/1e3, ns%1e3)
}
