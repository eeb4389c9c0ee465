# Prints the lines of Rust sources that ship, each as a `path:line: code`
# record: every `#[cfg(test)]` attribute and the item under it (the
# brace-balanced block, or the single `;`-terminated item, that follows)
# are dropped, wherever in the file they sit. Braces inside string and
# character literals and after `//` do not nest; a string literal may
# span lines. Used by ci/line_count.sh and ci/forbidden_patterns.sh:
#
#   awk -f ci/strip_tests.awk FILE...

# The net count of block braces on `line`, which starts inside a string
# literal when `instr` is set; leaves `instr` set when the line ends in
# one, and `opened` set when the line opened a block.
function braces(line,    i, n, ch, net, end) {
    net = 0
    n = length(line)
    for (i = 1; i <= n; i++) {
        ch = substr(line, i, 1)
        if (instr) {
            if (ch == "\\") i++
            else if (ch == "\"") instr = 0
        } else if (ch == "\"") {
            instr = 1
        } else if (ch == "/" && substr(line, i + 1, 1) == "/") {
            break
        } else if (ch == "'" && substr(line, i + 1, 1) == "\\") {
            # An escaped character literal: '\n', '\'', '\u{7b}'.
            end = index(substr(line, i + 3), "'")
            if (end > 0) i += end + 2
        } else if (ch == "'" && substr(line, i + 2, 1) == "'") {
            i += 2
        } else if (ch == "{") {
            net++
            opened = 1
        } else if (ch == "}") {
            net--
        }
    }
    return net
}

FNR == 1 { intest = 0; instr = 0 }
!instr && /#\[cfg\(test\)\]/ { intest = 1; opened = 0; depth = 0; next }
intest {
    depth += braces($0)
    if (!opened && !instr && /;/) { intest = 0 }
    else if (opened && depth <= 0) { intest = 0 }
    next
}
{ braces($0); print FILENAME ":" FNR ": " $0 }
