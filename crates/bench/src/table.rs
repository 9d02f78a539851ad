//! Structured experiment output: series of (x, y) points with labels,
//! printable as aligned tables.

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Message or packet size in bytes.
    pub x: usize,
    /// Measured value (µs or MiB/s depending on the series).
    pub y: f64,
}

/// One plotted curve of a figure.
#[derive(Clone, Debug)]
pub struct Series {
    pub name: String,
    /// Unit of `y`: `"us"` or `"MiB/s"`.
    pub unit: &'static str,
    pub points: Vec<Point>,
}

impl Series {
    pub fn new(name: impl Into<String>, unit: &'static str) -> Self {
        Series {
            name: name.into(),
            unit,
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, x: usize, y: f64) {
        self.points.push(Point { x, y });
    }

    /// y at the given x (exact match), if measured.
    pub fn at(&self, x: usize) -> Option<f64> {
        self.points.iter().find(|p| p.x == x).map(|p| p.y)
    }

    /// y of the largest measured x (the asymptote proxy).
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|p| p.y)
    }
}

/// Print aligned columns: one x column, one column per series.
pub fn print_table(title: &str, series: &[Series]) {
    println!("\n== {title} ==");
    print!("{:>10}", "size");
    for s in series {
        print!(" {:>22}", format!("{} ({})", s.name, s.unit));
    }
    println!();
    let xs: Vec<usize> = series
        .first()
        .map(|s| s.points.iter().map(|p| p.x).collect())
        .unwrap_or_default();
    for x in xs {
        print!("{x:>10}");
        for s in series {
            match s.at(x) {
                Some(y) => print!(" {y:>22.2}"),
                None => print!(" {:>22}", "-"),
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accessors() {
        let mut s = Series::new("test", "us");
        s.push(4, 1.5);
        s.push(8, 2.5);
        assert_eq!(s.at(4), Some(1.5));
        assert_eq!(s.at(5), None);
        assert_eq!(s.last(), Some(2.5));
    }

    #[test]
    fn print_does_not_panic() {
        let mut s = Series::new("a", "MiB/s");
        s.push(1024, 42.0);
        print_table("smoke", &[s]);
    }
}
