//! Kernel sequences [`Gpu::run`](crate::Gpu::run) prices: a flat slice, or
//! a [`PeriodicSchedule`] that stores one layer and a layer count.

use crate::kernel::KernelDesc;

/// The L2 key of a buffer inside a layer-periodic run: its layer (`None`
/// for ids outside the `l{k}.` convention) and an index into the run's
/// interned local names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BufKey {
    pub(crate) layer: Option<usize>,
    pub(crate) name: usize,
}

impl BufKey {
    /// This key moved `layers` layers later; shared buffers stay put.
    pub(crate) fn shifted(self, layers: usize) -> BufKey {
        BufKey {
            layer: self.layer.map(|l| l + layers),
            ..self
        }
    }
}

/// Splits `l{k}.{local}` into `(k, local)`; `k` must be canonical decimal so
/// that each id has exactly one key and each key renders back to its id, and
/// fit in a `u32` so that shifting it by a layer count cannot overflow.
fn parse_layer_id(id: &str) -> Option<(usize, &str)> {
    let rest = id.strip_prefix('l')?;
    let (digits, local) = rest.split_once('.')?;
    let canonical = !digits.is_empty()
        && digits.bytes().all(|b| b.is_ascii_digit())
        && (digits == "0" || !digits.starts_with('0'));
    if !canonical {
        return None;
    }
    let layer: u32 = digits.parse().ok()?;
    Some((layer as usize, local))
}

/// Interns a local name, returning its index in `names`.
fn intern(names: &mut Vec<String>, name: &str) -> usize {
    names.iter().position(|n| n == name).unwrap_or_else(|| {
        names.push(name.to_owned());
        names.len() - 1
    })
}

/// The layer-relative L2 key of `id` (layer 0's view), interning its local
/// name.
pub(crate) fn relative_key(names: &mut Vec<String>, id: &str) -> BufKey {
    match parse_layer_id(id) {
        Some((layer, local)) => BufKey {
            layer: Some(layer),
            name: intern(names, local),
        },
        None => BufKey {
            layer: None,
            name: intern(names, id),
        },
    }
}

/// Renders a key back to its buffer id.
pub(crate) fn render_key(names: &[String], key: BufKey) -> String {
    match key.layer {
        Some(layer) => format!("l{layer}.{}", names[key.name]),
        None => names[key.name].clone(),
    }
}

/// The relative keys of one template kernel's reads and writes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TemplateKeys {
    pub(crate) reads: Vec<BufKey>,
    pub(crate) writes: Vec<BufKey>,
}

/// One transformer layer's kernels, repeated `layers` times.
///
/// A transformer stack repeats one layer's kernels; only the buffer ids
/// change from layer to layer. The schedule keeps that one layer (the
/// *template*) with its buffer ids written for layer 0, and expands to the
/// flat form on demand. Buffer ids follow the convention the schedule
/// builders use: `l{k}.{local}` names buffer `local` of layer `k`, so in
/// layer `i` of the expansion the same template buffer is `l{k + i}.{local}`
/// (a template kernel writing `l1.x` feeds the next layer's `l0.x` reader).
/// Ids of any other form are shared by every layer and never relabelled.
///
/// [`Gpu::run`](crate::Gpu::run) prices it layer by layer and, once a layer
/// starts from the previous layer's L2 state shifted by one layer, appends
/// the previous layer's statistics for every remaining layer instead of
/// re-pricing them. The timeline is bit-identical to running
/// [`PeriodicSchedule::expand`].
///
/// # Example
///
/// ```
/// use resoftmax_gpusim::{DeviceSpec, Gpu, KernelCategory, KernelDesc, PeriodicSchedule, TbWork};
///
/// let layer = vec![KernelDesc::builder("mix", KernelCategory::Other)
///     .uniform(64, TbWork::memory(4096.0, 4096.0))
///     .reads("l0.x", 64 * 4096)
///     .writes("l1.x", 64 * 4096)
///     .build()];
/// let schedule = PeriodicSchedule::new(layer, 12);
/// assert_eq!(schedule.len(), 12);
/// assert_eq!(schedule.expand()[3].writes[0].id, "l4.x");
///
/// let mut periodic = Gpu::new(DeviceSpec::a100());
/// periodic.run(&schedule)?;
/// let mut flat = Gpu::new(DeviceSpec::a100());
/// flat.run(&schedule.expand())?;
/// assert_eq!(periodic.timeline(), flat.timeline());
/// # Ok::<(), resoftmax_gpusim::LaunchError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodicSchedule {
    template: Vec<KernelDesc>,
    layers: usize,
    /// Local names the template's keys index.
    names: Vec<String>,
    /// Per template kernel, its buffers' relative keys.
    keys: Vec<TemplateKeys>,
}

impl PeriodicSchedule {
    /// A schedule of `layers` copies of `template`, whose buffer ids are
    /// written for layer 0.
    pub fn new(template: Vec<KernelDesc>, layers: usize) -> Self {
        let mut names = Vec::new();
        let keys = template
            .iter()
            .map(|k| TemplateKeys {
                reads: k
                    .reads
                    .iter()
                    .map(|b| relative_key(&mut names, &b.id))
                    .collect(),
                writes: k
                    .writes
                    .iter()
                    .map(|b| relative_key(&mut names, &b.id))
                    .collect(),
            })
            .collect();
        PeriodicSchedule {
            template,
            layers,
            names,
            keys,
        }
    }

    /// Layer 0's kernels.
    pub fn template(&self) -> &[KernelDesc] {
        &self.template
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Number of kernels the schedule launches: template length × layers.
    pub fn len(&self) -> usize {
        self.template.len() * self.layers
    }

    /// `true` if the schedule launches no kernel.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flat kernel sequence: every layer's kernels with their buffer ids
    /// relabelled, in launch order.
    pub fn expand(&self) -> Vec<KernelDesc> {
        let mut flat = Vec::with_capacity(self.len());
        for layer in 0..self.layers {
            for (kernel, keys) in self.template.iter().zip(&self.keys) {
                let mut k = kernel.clone();
                if layer > 0 {
                    for (b, key) in k.reads.iter_mut().zip(&keys.reads) {
                        b.id = render_key(&self.names, key.shifted(layer));
                    }
                    for (b, key) in k.writes.iter_mut().zip(&keys.writes) {
                        b.id = render_key(&self.names, key.shifted(layer));
                    }
                }
                flat.push(k);
            }
        }
        flat
    }

    pub(crate) fn names(&self) -> &[String] {
        &self.names
    }

    pub(crate) fn keys(&self) -> &[TemplateKeys] {
        &self.keys
    }
}

/// A kernel sequence [`Gpu::run`](crate::Gpu::run) accepts: a flat slice of
/// kernels or a [`PeriodicSchedule`]. Built through `From`, so `run` takes
/// `&Vec<KernelDesc>`, `&[KernelDesc]` and `&PeriodicSchedule`.
#[derive(Debug, Clone, Copy)]
pub enum ScheduleRef<'a> {
    /// Kernels launched in order.
    Flat(&'a [KernelDesc]),
    /// One layer repeated.
    Periodic(&'a PeriodicSchedule),
}

impl<'a> From<&'a [KernelDesc]> for ScheduleRef<'a> {
    fn from(kernels: &'a [KernelDesc]) -> Self {
        ScheduleRef::Flat(kernels)
    }
}

impl<'a> From<&'a Vec<KernelDesc>> for ScheduleRef<'a> {
    fn from(kernels: &'a Vec<KernelDesc>) -> Self {
        ScheduleRef::Flat(kernels)
    }
}

impl<'a> From<&'a PeriodicSchedule> for ScheduleRef<'a> {
    fn from(schedule: &'a PeriodicSchedule) -> Self {
        ScheduleRef::Periodic(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelCategory;

    #[test]
    fn layer_ids_parse_only_in_canonical_form() {
        assert_eq!(parse_layer_id("l0.x"), Some((0, "x")));
        assert_eq!(parse_layer_id("l23.q.w"), Some((23, "q.w")));
        for shared in [
            "l01.x",
            "l.x",
            "lx.y",
            "x",
            "l3",
            "layer0.x",
            "l-1.x",
            "l4294967296.x",
        ] {
            assert_eq!(parse_layer_id(shared), None, "{shared}");
        }
    }

    #[test]
    fn expand_relabels_layer_ids_and_keeps_shared_ids() {
        let k = KernelDesc::builder("k", KernelCategory::Other)
            .reads("l0.x", 8)
            .reads("table", 8)
            .writes("l1.x", 8)
            .build();
        let s = PeriodicSchedule::new(vec![k], 3);
        let flat = s.expand();
        let ids: Vec<_> = flat
            .iter()
            .map(|k| {
                (
                    k.reads[0].id.as_str(),
                    k.reads[1].id.as_str(),
                    k.writes[0].id.as_str(),
                )
            })
            .collect();
        assert_eq!(
            ids,
            [
                ("l0.x", "table", "l1.x"),
                ("l1.x", "table", "l2.x"),
                ("l2.x", "table", "l3.x")
            ]
        );
        assert_eq!(s.len(), 3);
        assert!(PeriodicSchedule::new(Vec::new(), 4).is_empty());
    }
}
