//! Platform descriptions: the knobs that differ between the surveyed
//! testbeds. All times in seconds, bandwidth in bytes/second.

/// A parallel platform as the cost model sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Parallel workers (GPU cores, cluster nodes, CPU cores, ...).
    pub workers: usize,
    /// Per-worker compute speed relative to the host core that measured
    /// the evaluation cost (GPU cores are individually slower: < 1).
    pub worker_speed: f64,
    /// One-way message latency between master/worker or island pairs.
    pub latency_s: f64,
    /// Link bandwidth.
    pub bandwidth_bps: f64,
    /// Fixed overhead per dispatch (kernel launch on GPUs, batch
    /// scheduling on clusters).
    pub dispatch_overhead_s: f64,
    /// True when all communication stays on the device (Zajíček's
    /// all-on-GPU design): per-generation host transfers are skipped.
    pub on_device: bool,
}

impl Platform {
    /// A single host core — the sequential baseline.
    pub fn serial() -> Self {
        Platform {
            name: "serial-cpu",
            workers: 1,
            worker_speed: 1.0,
            latency_s: 0.0,
            bandwidth_bps: f64::INFINITY,
            dispatch_overhead_s: 0.0,
            on_device: false,
        }
    }

    /// A shared-memory multicore machine (the Mui 6-CPU server, modern
    /// laptops): negligible latency, high bandwidth.
    pub fn multicore(cores: usize) -> Self {
        Platform {
            name: "multicore",
            workers: cores,
            worker_speed: 1.0,
            latency_s: 2e-7,
            bandwidth_bps: 2e10,
            dispatch_overhead_s: 5e-7,
            on_device: false,
        }
    }

    /// An Ethernet/MPI cluster (Beowulf of Harmanani \[33\], the star
    /// network of AitZai \[14\], the 48-core farm of Defersha \[35\]).
    pub fn mpi_cluster(nodes: usize) -> Self {
        Platform {
            name: "mpi-cluster",
            workers: nodes,
            worker_speed: 1.0,
            latency_s: 5e-5,
            bandwidth_bps: 1.25e8, // ~1 Gb/s
            dispatch_overhead_s: 1e-5,
            on_device: false,
        }
    }

    /// A CUDA GPU with `cores` scalar cores, each `speed` times the host
    /// core; kernel launches cost ~10 µs; PCIe transfers at ~8 GB/s.
    /// Models the Tesla C2075 (448 cores) / C1060 / GTX 285 class devices
    /// of \[14\]\[16\]\[24\]\[25\].
    pub fn cuda_gpu(cores: usize, speed: f64) -> Self {
        Platform {
            name: "cuda-gpu",
            workers: cores,
            worker_speed: speed,
            latency_s: 1e-5,    // kernel-launch-ish
            bandwidth_bps: 8e9, // PCIe host<->device
            dispatch_overhead_s: 1e-5,
            on_device: false,
        }
    }

    /// The all-on-GPU variant of Zajíček & Šucha \[25\]: evolution *and*
    /// evaluation stay on the device, so per-generation host traffic
    /// disappears.
    pub fn cuda_gpu_resident(cores: usize, speed: f64) -> Self {
        Platform {
            on_device: true,
            name: "cuda-gpu-resident",
            ..Self::cuda_gpu(cores, speed)
        }
    }

    /// A Transputer-style MIMD array (Tamaki \[20\]): modest core count,
    /// no shared memory, 10 Mbit/s serial links (T800 class).
    pub fn transputer(nodes: usize) -> Self {
        Platform {
            name: "transputer",
            workers: nodes,
            worker_speed: 1.0,
            latency_s: 1e-5,
            bandwidth_bps: 1.25e6,
            dispatch_overhead_s: 0.0,
            on_device: false,
        }
    }

    /// Transfer time of `bytes` over one link.
    pub fn transfer_s(&self, bytes: f64) -> f64 {
        if self.bandwidth_bps.is_infinite() {
            self.latency_s
        } else {
            self.latency_s + bytes / self.bandwidth_bps
        }
    }

    /// Time for one worker to perform `units` of work, where one unit
    /// costs `unit_s` on the measuring host core.
    pub fn compute_s(&self, units: f64, unit_s: f64) -> f64 {
        units * unit_s / self.worker_speed
    }
}

/// CPU cores visible to this process (`available_parallelism`, 1 when
/// the runtime cannot tell). Deterministic cost-model *predictions*
/// never call this — it exists for runtime provisioning decisions, so
/// pools scale with the hardware instead of with request volume.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_platform_is_neutral() {
        let p = Platform::serial();
        assert_eq!(p.workers, 1);
        assert_eq!(p.compute_s(10.0, 0.5), 5.0);
        assert_eq!(p.transfer_s(1e9), 0.0);
    }

    #[test]
    fn gpu_cores_are_slow_but_many() {
        let g = Platform::cuda_gpu(448, 0.1);
        assert_eq!(g.workers, 448);
        // One unit takes 10x longer per core.
        assert!((g.compute_s(1.0, 1e-3) - 1e-2).abs() < 1e-12);
    }

    #[test]
    fn transfer_includes_latency_and_bandwidth() {
        let c = Platform::mpi_cluster(8);
        let t = c.transfer_s(1.25e8); // one second of payload
        assert!(t > 1.0 && t < 1.01);
    }

    #[test]
    fn resident_gpu_flag() {
        assert!(Platform::cuda_gpu_resident(240, 0.1).on_device);
        assert!(!Platform::cuda_gpu(240, 0.1).on_device);
    }
}
