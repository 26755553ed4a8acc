// Package jsonw appends JSON text without reflection. For the same
// values its output is byte-identical to encoding/json's: strings are
// escaped as json.Marshal escapes them (HTML-safe, invalid UTF-8 as
// \ufffd, U+2028 and U+2029 escaped), numbers use its formats, and an
// indenting Writer lays text out as a json.Encoder with
// SetIndent("", "  ") does. Study outcomes and serve job statuses are
// rendered through it; the equality with encoding/json is pinned by
// this package's tests and by the study and serve renderers' reference
// tests.
package jsonw

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"
)

// Writer appends one JSON value to B. Containers are opened and closed
// explicitly and the Writer places the separators: a comma between
// elements, ": " (or ":" when compact) after a key and, when
// indenting, a newline and two spaces per level before each element
// and before the closer of a non-empty container.
type Writer struct {
	// B holds the text written so far.
	B      []byte
	indent bool
	depth  int
	// empty is true while the innermost open container has no element.
	empty bool
	// key is true between a key and its value.
	key bool
	err error
}

// NewWriter returns a Writer appending to dst, indented or compact.
func NewWriter(dst []byte, indent bool) Writer {
	return Writer{B: dst, indent: indent}
}

// Err reports the first unrepresentable value written, with
// encoding/json's message for it.
func (w *Writer) Err() error { return w.err }

// sep writes what precedes a value or key: nothing after a key or at
// the top level, otherwise a comma after an earlier element and the
// indentation of the current level.
func (w *Writer) sep() {
	if w.key {
		w.key = false
		return
	}
	if w.depth == 0 {
		return
	}
	if !w.empty {
		w.B = append(w.B, ',')
	}
	w.empty = false
	w.newline()
}

func (w *Writer) newline() {
	if !w.indent {
		return
	}
	w.B = append(w.B, '\n')
	for i := 0; i < w.depth; i++ {
		w.B = append(w.B, ' ', ' ')
	}
}

func (w *Writer) open(c byte) {
	w.sep()
	w.B = append(w.B, c)
	w.depth++
	w.empty = true
}

func (w *Writer) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.B = append(w.B, c)
	w.empty = false
}

// BeginObject opens an object; EndObject closes it.
func (w *Writer) BeginObject() { w.open('{') }

// EndObject closes the innermost object.
func (w *Writer) EndObject() { w.close('}') }

// BeginArray opens an array; EndArray closes it.
func (w *Writer) BeginArray() { w.open('[') }

// EndArray closes the innermost array.
func (w *Writer) EndArray() { w.close(']') }

// Key writes an object member's name; the member's value follows.
func (w *Writer) Key(k string) {
	w.sep()
	w.B = AppendString(w.B, k)
	w.B = append(w.B, ':')
	if w.indent {
		w.B = append(w.B, ' ')
	}
	w.key = true
}

// String writes a string value.
func (w *Writer) String(s string) {
	w.sep()
	w.B = AppendString(w.B, s)
}

// Int writes an integer value.
func (w *Writer) Int(n int) {
	w.sep()
	w.B = strconv.AppendInt(w.B, int64(n), 10)
}

// Bool writes true or false.
func (w *Writer) Bool(b bool) {
	w.sep()
	w.B = strconv.AppendBool(w.B, b)
}

// Null writes null.
func (w *Writer) Null() {
	w.sep()
	w.B = append(w.B, "null"...)
}

// Float writes a float64 value. NaN and the infinities have no JSON
// form: the first one written sets Err, as json.Marshal fails on a
// float64 field holding one (null stands in for it).
func (w *Writer) Float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
		}
		w.Null()
		return
	}
	w.sep()
	w.B = AppendFloat(w.B, f)
}

// FloatOrNull writes a float64 value, or null for NaN and the
// infinities — json.Marshal's rendering of a *float64 field that is
// nil exactly when the value is not finite.
func (w *Writer) FloatOrNull(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.Null()
		return
	}
	w.sep()
	w.B = AppendFloat(w.B, f)
}

// AppendFloat appends a finite float64 as encoding/json formats it:
// the shortest representation that round-trips, in 'e' format below
// 1e-6 and from 1e21 up (with a single-digit negative exponent
// unpadded), in 'f' format otherwise.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hex = "0123456789abcdef"

// AppendString appends s as a quoted JSON string, escaped as
// json.Marshal escapes it: `"` and `\` backslashed; \b, \f, \n, \r
// and \t by name; other control characters and <, > and & as \u00XX;
// each byte of invalid UTF-8 as \ufffd; U+2028 and U+2029 as \u2028
// and \u2029. Everything else is copied.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
