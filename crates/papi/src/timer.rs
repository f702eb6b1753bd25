//! PAPI timing over virtual time (the `PAPI_get_real_usec` equivalent).

/// Virtual seconds → whole microseconds, as `PAPI_get_real_usec` reports.
pub fn real_usec(t_s: f64) -> u64 {
    (t_s * 1e6) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(real_usec(1.5), 1_500_000);
    }
}
