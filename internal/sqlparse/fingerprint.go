package sqlparse

import "strings"

// Fingerprint normalizes a statement's text for workload aggregation:
// literals and parameter markers collapse to "?", keywords upper-case,
// identifiers lower-case, whitespace and comments squeeze to single
// spaces. Two executions of the same statement shape with different
// constants share one fingerprint — the key the flight recorder's digest
// table (the pg_stat_statements analog) aggregates on.
//
// IN-list and VALUES arity is preserved ("IN ( ?, ? )" vs "IN ( ? )"):
// arity changes plan shape, so the digest consumers (admission control,
// index consultant) want them distinct.
//
// Text that does not lex falls back to a whitespace-squeezed, lower-cased
// copy so every statement — including ones the parser later rejects —
// lands in some digest row.
func Fingerprint(sql string) string {
	toks, err := lex(sql)
	if err != nil {
		return fallbackFingerprint(sql)
	}
	return fingerprintTokens(toks)
}

func fallbackFingerprint(sql string) string {
	return strings.Join(strings.Fields(strings.ToLower(sql)), " ")
}

func fingerprintTokens(toks []token) string {
	var sb strings.Builder
	sb.Grow(toks[len(toks)-1].pos) // the EOF token's: the source's length
	for _, t := range toks {
		if t.kind == tokEOF {
			break
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		switch t.kind {
		case tokInt, tokFloat, tokString, tokParam:
			sb.WriteByte('?')
		case tokIdent:
			sb.WriteString(strings.ToLower(t.text))
		default: // keywords (already upper), operators
			sb.WriteString(t.text)
		}
	}
	return sb.String()
}
