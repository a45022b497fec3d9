//! Seeded inputs: the synthetic NetCDF files of `aql_netcdf::synth`
//! written to disk, the buffers they were generated from (the
//! reference every answer is checked against), and the arrays the
//! spill workloads write.

use std::path::{Path, PathBuf};

use aql_netcdf::format::VERSION_CLASSIC;
use aql_netcdf::model::{NcFile, NcValues};
use aql_netcdf::synth;
use aql_netcdf::write::write_file;

/// Extents of `temp(time, lat, lon)` in the year file.
pub const T_DIMS: [u64; 3] = [8760, 5, 5];
/// Elements of `temp`.
pub const T_LEN: usize = 8760 * 5 * 5;

/// SplitMix64: the benchmark's own generator, so its inputs do not
/// move when the engine's generators change.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Which inputs a workload needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Needs {
    /// The year file (`temp`).
    pub year: bool,
    /// The June file (`T`, `RH`, `WS`).
    pub june: bool,
    /// The seeded integer-valued arrays written by `spill-packed`.
    pub packed: bool,
}

/// The generated inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    /// Directory holding every file of the run.
    pub dir: PathBuf,
    /// The year file, when generated.
    pub temp_nc: PathBuf,
    /// The June file, when generated.
    pub june_nc: PathBuf,
    /// `temp` in row-major order, as generated.
    pub temp: Vec<f64>,
    /// Seeded counts in `0..1000`, shaped like `temp` (a `nat` array:
    /// its AQF chunks take the BitPack codec).
    pub counts: Vec<u64>,
    /// `temp` rounded to whole degrees plus a seeded integral offset
    /// (integral reals: their AQF chunks take the FrameOfRef codec).
    pub quantized: Vec<f64>,
}

impl Inputs {
    /// Generate the inputs `needs` names into `dir` (created if
    /// missing; files are always rewritten, since writing them is part
    /// of set-up).
    pub fn generate(dir: &Path, seed: u64, needs: Needs) -> Result<Inputs, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let temp_nc = dir.join("temp.nc");
        let june_nc = dir.join("wx_june.nc");
        let mut temp = Vec::new();
        if needs.year {
            let f = synth::year_temp_file().map_err(|e| e.to_string())?;
            temp = doubles(&f, "temp")?;
            write_file(&f, &temp_nc, VERSION_CLASSIC).map_err(|e| e.to_string())?;
        }
        if needs.june {
            let f = synth::june_weather_file().map_err(|e| e.to_string())?;
            write_file(&f, &june_nc, VERSION_CLASSIC).map_err(|e| e.to_string())?;
        }
        let (mut counts, mut quantized) = (Vec::new(), Vec::new());
        if needs.packed {
            let mut rng = Rng::new(seed ^ 0x5041_434B);
            counts = (0..T_LEN).map(|_| rng.below(1000)).collect();
            let offset = rng.below(50) as f64;
            quantized = temp.iter().map(|x| x.round() + offset).collect();
        }
        Ok(Inputs {
            dir: dir.to_path_buf(),
            temp_nc,
            june_nc,
            temp,
            counts,
            quantized,
        })
    }
}

/// The `f64` data of variable `var`.
fn doubles(f: &NcFile, var: &str) -> Result<Vec<f64>, String> {
    let (vi, _) = f.find_var(var).map_err(|e| e.to_string())?;
    match &f.data[vi] {
        NcValues::Double(v) => Ok(v.clone()),
        _ => Err(format!("variable {var} is not double")),
    }
}

/// Row-major offset of `(t, i, j)` in `temp`.
pub fn t_off(t: u64, i: u64, j: u64) -> usize {
    ((t * T_DIMS[1] + i) * T_DIMS[2] + j) as usize
}
