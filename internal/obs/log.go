package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// level is a log severity.
type level int8

const (
	levelInfo level = iota
	levelWarn
	levelError
)

func (l level) String() string {
	switch l {
	case levelInfo:
		return "INFO"
	case levelWarn:
		return "WARN"
	default:
		return "ERROR"
	}
}

// Logger is a minimal leveled logger with text and JSON output formats.
// Records are one line each: text is "ts LEVEL msg k=v ...", json is one
// object per line. Keys/values come as variadic pairs; a dangling key is
// emitted with a "?" value rather than dropped.
type Logger struct {
	mu     sync.Mutex
	w      io.Writer
	format string // "text" or "json"
}

// NewLogger builds a Logger. format is "text" or "json" (anything else
// falls back to text).
func NewLogger(w io.Writer, format string) *Logger {
	if format != "json" {
		format = "text"
	}
	return &Logger{w: w, format: format}
}

func (l *Logger) log(lv level, msg string, kv ...any) {
	now := time.Now()
	var b strings.Builder
	if l.format == "json" {
		b.WriteString(`{"ts":"`)
		b.WriteString(now.Format(time.RFC3339Nano))
		b.WriteString(`","level":"`)
		b.WriteString(lv.String())
		b.WriteString(`","msg":`)
		b.Write(jsonString(msg))
		for i := 0; i < len(kv); i += 2 {
			key := fmt.Sprint(kv[i])
			var val any = "?"
			if i+1 < len(kv) {
				val = kv[i+1]
			}
			b.WriteByte(',')
			b.Write(jsonString(key))
			b.WriteByte(':')
			b.Write(jsonValue(val))
		}
		b.WriteString("}\n")
	} else {
		b.WriteString(now.Format("2006-01-02T15:04:05.000Z07:00"))
		b.WriteByte(' ')
		b.WriteString(lv.String())
		b.WriteByte(' ')
		b.WriteString(msg)
		for i := 0; i < len(kv); i += 2 {
			b.WriteByte(' ')
			b.WriteString(fmt.Sprint(kv[i]))
			b.WriteByte('=')
			if i+1 < len(kv) {
				b.WriteString(textValue(kv[i+1]))
			} else {
				b.WriteByte('?')
			}
		}
		b.WriteByte('\n')
	}
	l.mu.Lock()
	io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

// Info logs at info level; kv are alternating key/value pairs.
func (l *Logger) Info(msg string, kv ...any) { l.log(levelInfo, msg, kv...) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(levelWarn, msg, kv...) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(levelError, msg, kv...) }

// Fatal logs at error level and exits the process.
func (l *Logger) Fatal(msg string, kv ...any) {
	l.log(levelError, msg, kv...)
	os.Exit(1)
}

func jsonString(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		return []byte(`"?"`)
	}
	return b
}

func jsonValue(v any) []byte {
	switch x := v.(type) {
	case error:
		return jsonString(x.Error())
	case time.Duration:
		return jsonString(x.String())
	case fmt.Stringer:
		return jsonString(x.String())
	}
	b, err := json.Marshal(v)
	if err != nil {
		return jsonString(fmt.Sprint(v))
	}
	return b
}

func textValue(v any) string {
	s := fmt.Sprint(v)
	if strings.ContainsAny(s, " \t\n\"=") {
		return strconv.Quote(s)
	}
	return s
}
