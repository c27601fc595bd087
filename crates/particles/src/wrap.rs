//! Periodic boundary handling for particle positions.

/// Wrap `x` into `[0, l)`.
///
/// Handles any finite input, including large negative positions, and
/// guards the `x == l` edge produced by floating-point wrap-around.
#[inline]
pub fn wrap_periodic(x: f64, l: f64) -> f64 {
    debug_assert!(l > 0.0, "domain length must be positive");
    // Most positions never leave the domain in one step; `x % l` is
    // exactly `x` for them, so skip the libm `fmod` call.
    if (0.0..l).contains(&x) {
        return x;
    }
    let mut w = x % l;
    if w < 0.0 {
        w += l;
    }
    // x % l can return exactly l after the negative fix-up when x is a
    // tiny negative number; fold it back to 0.
    if w >= l {
        w = 0.0;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The formula before the in-range early return: bit-exact reference.
    fn reference(x: f64, l: f64) -> f64 {
        let mut w = x % l;
        if w < 0.0 {
            w += l;
        }
        if w >= l {
            w = 0.0;
        }
        w
    }

    fn assert_matches_reference(x: f64, l: f64) {
        let (got, want) = (wrap_periodic(x, l), reference(x, l));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "wrap({x}, {l}): {got} vs {want}"
        );
    }

    #[test]
    fn in_range_unchanged() {
        assert_eq!(wrap_periodic(3.5, 10.0), 3.5);
        assert_eq!(wrap_periodic(0.0, 10.0), 0.0);
        for &x in &[0.0, 3.5, 1e-300, 9.999999999, 10.0f64.next_down()] {
            assert_eq!(wrap_periodic(x, 10.0).to_bits(), x.to_bits());
            assert_matches_reference(x, 10.0);
        }
    }

    #[test]
    fn negative_zero_keeps_its_sign_bit() {
        assert_matches_reference(-0.0, 10.0);
        assert_eq!(wrap_periodic(-0.0, 10.0).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn wraps_positive_overflow() {
        for &x in &[10.0, 13.5, 19.999999999, 20.0f64.next_down(), 107.0, 1e9] {
            assert_matches_reference(x, 10.0);
        }
        assert_eq!(wrap_periodic(13.5, 10.0), 3.5);
        assert_eq!(wrap_periodic(107.0, 10.0), 7.0);
    }

    #[test]
    fn wraps_negative() {
        for &x in &[
            -1.0,
            -10.0,
            -5.25,
            (-10.0f64).next_up(),
            -10.0f64.next_up(),
            -21.0,
            -1e9,
        ] {
            assert_matches_reference(x, 10.0);
        }
        assert_eq!(wrap_periodic(-1.0, 10.0), 9.0);
        assert_eq!(wrap_periodic(-21.0, 10.0), 9.0);
    }

    #[test]
    fn tiny_negative_folds_to_zero() {
        // -1e-18 + 10 rounds to exactly 10, which the `w >= l` fold maps
        // back to 0
        assert_eq!(-1e-18 % 10.0 + 10.0, 10.0);
        assert_matches_reference(-1e-18, 10.0);
        assert_eq!(wrap_periodic(-1e-18, 10.0), 0.0);
    }

    #[test]
    fn non_integer_lengths_match_reference() {
        let l = 12.8f64;
        for &x in &[
            0.0,
            6.4,
            l.next_down(),
            l,
            l + 0.1,
            2.0 * l,
            -0.1,
            -l,
            -l - 0.1,
        ] {
            assert_matches_reference(x, l);
        }
    }

    #[test]
    fn result_always_in_half_open_range() {
        for &x in &[-1e-18, -10.0, 9.999999999, 1e9, -1e9, 0.1] {
            let w = wrap_periodic(x, 10.0);
            assert!((0.0..10.0).contains(&w), "wrap({x}) = {w}");
        }
    }
}
