"""Unit conversions and the input-number rule.

All internal physics is done in Hartree atomic units (hbar = m_e = e =
4 pi eps0 = 1).  Energies and angular frequencies share the same unit;
times are atomic time units.  Conversions below are used only at the
reporting and config-parsing boundaries, where is_finite_number decides
which numbers an input file may hold and input_repr shows a rejected
value.
"""

import math

AU_TIME_S = 2.418884e-17      # one atomic time unit in seconds
AU_TIME_NS = AU_TIME_S * 1e9  # ... in nanoseconds

S_TO_AU = 1.0 / AU_TIME_S

# time units accepted in config files, value = factor to atomic units
TIME_UNITS = {
    "au": 1.0,
    "s": S_TO_AU,
    "ms": 1e-3 * S_TO_AU,
    "us": 1e-6 * S_TO_AU,
    "ns": 1e-9 * S_TO_AU,
    "ps": 1e-12 * S_TO_AU,
    "fs": 1e-15 * S_TO_AU,
}

TWO_PI = 2.0 * math.pi
LN2 = math.log(2.0)


def is_finite_number(value) -> bool:
    """True for an int or a float, not a bool, with a finite value.  An
    int beyond the float range is not finite.  Every input reader (YAML
    quantities and parameters, unitary JSON, amplitude pairs, schedule
    JSON) decides with this."""
    try:
        return type(value) is not bool and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:       # an int too large for a float
        return False


# An integer of more digits than this is shown by its digit count in an
# error message (a 64-bit integer has at most 19 digits)
SHOWN_DIGITS = 20


def input_repr(value, form=repr) -> str:
    """form(value), its repr or its str, of an input value for an error
    message; an int (not a bool) of more than SHOWN_DIGITS digits reads
    'an integer of <n> digits'.  The digits are counted without str(),
    which refuses an int of more than 4300 digits."""
    if type(value) is int and abs(value) >= 10**SHOWN_DIGITS:
        n = abs(value)
        # log10 is within one of the exact exponent; a power of ten settles it
        k = int(math.log10(n))
        k += (n >= 10 ** (k + 1)) - (n < 10**k)
        return f"an integer of {k + 1} digits"
    return form(value)
