//! The byte → page accounting model.
//!
//! The paper's optimizer "minimizes IO cost" (Section 5); both our cost
//! model (estimates) and our executor (measurements) express IO in
//! *pages*. `PageModel` is the single place where bytes become pages so
//! the two sides can never diverge on the conversion.

/// Converts row counts and widths into page counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageModel {
    /// Page size in bytes.
    pub page_size: usize,
}

impl Default for PageModel {
    fn default() -> Self {
        PageModel { page_size: 4096 }
    }
}

impl PageModel {
    pub fn new(page_size: usize) -> PageModel {
        assert!(page_size > 0, "page size must be positive");
        PageModel { page_size }
    }

    /// Pages needed to hold `bytes` bytes (at least 1 for non-empty data).
    pub fn pages_for_bytes(&self, bytes: f64) -> f64 {
        if bytes <= 0.0 {
            0.0
        } else {
            (bytes / self.page_size as f64).max(1.0)
        }
    }

    /// Pages needed to hold `rows` rows of `width` bytes each.
    ///
    /// Returns a fractional page count: the cost model works with
    /// expected values, and rounding every intermediate would bias small
    /// relations. Call sites that need whole pages round up themselves.
    pub fn pages_for(&self, rows: f64, width: f64) -> f64 {
        self.pages_for_bytes(rows * width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_zero_pages() {
        let m = PageModel::default();
        assert_eq!(m.pages_for_bytes(0.0), 0.0);
        assert_eq!(m.pages_for(0.0, 48.0), 0.0);
    }

    #[test]
    fn nonempty_data_takes_at_least_one_page() {
        let m = PageModel::default();
        assert_eq!(m.pages_for_bytes(1.0), 1.0);
    }

    #[test]
    fn fractional_pages_scale_linearly() {
        let m = PageModel::new(1000);
        assert_eq!(m.pages_for(100.0, 50.0), 5.0);
        assert_eq!(m.pages_for_bytes(2500.0), 2.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_page_size_rejected() {
        PageModel::new(0);
    }
}
