//! The model zoo: the eleven inference models of the paper's Table 1
//! plus DSSM-2389 (used by the Q&A-robot application in §5.1), each as a
//! concrete operator DAG.
//!
//! Sizes and GFLOP counts follow Table 1; DAG shapes follow the
//! published architectures closely enough to reproduce the paper's
//! structural observations: ResNet-50 uses few distinct operator kinds
//! with `Conv2D` dominating execution time, LSTM-2365 calls `MatMul`
//! ~80 times across many small parallel branches (Fig. 7), and the
//! total per-sample work matches the Table 1 GFLOPs within a few
//! percent.

use serde::{Deserialize, Serialize};

use crate::dag::{DagBuilder, NodeId, OperatorDag};
use crate::operator::{OpKind, Operator};

/// Identifiers of the models in the zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ModelId {
    /// BERT (language processing, 391 MB, 22.2 GFLOPs).
    BertV1,
    /// ResNet-50 (image classification, 98 MB, 3.89 GFLOPs).
    ResNet50,
    /// VGGNet (feature localisation, 69 MB, 5.55 GFLOPs).
    VggNet,
    /// LSTM-2365 (text Q&A, 39 MB, 0.10 GFLOPs).
    Lstm2365,
    /// ResNet-20 (image classification, 36 MB, 1.55 GFLOPs).
    ResNet20,
    /// SSD (object detection, 29 MB, 2.02 GFLOPs).
    Ssd,
    /// DSSM-2365 (text Q&A, 25 MB, 0.13 GFLOPs).
    Dssm2365,
    /// DSSM-2389 (text Q&A variant used by the Q&A robot, 26 MB).
    Dssm2389,
    /// DeepSpeech (speech recognition, 17 MB, 1.60 GFLOPs).
    DeepSpeech,
    /// MobileNet (mobile vision, 17 MB, 0.05 GFLOPs).
    MobileNet,
    /// TextCNN-69 (text classification, 11 MB, 0.53 GFLOPs).
    TextCnn69,
    /// MNIST MLP (number recognition, 72 kB, 0.01 GFLOPs).
    Mnist,
}

impl ModelId {
    /// All models in the zoo, largest first (Table 1 order).
    pub fn all() -> [ModelId; 12] {
        [
            ModelId::BertV1,
            ModelId::ResNet50,
            ModelId::VggNet,
            ModelId::Lstm2365,
            ModelId::ResNet20,
            ModelId::Ssd,
            ModelId::Dssm2365,
            ModelId::Dssm2389,
            ModelId::DeepSpeech,
            ModelId::MobileNet,
            ModelId::TextCnn69,
            ModelId::Mnist,
        ]
    }

    /// The model's display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::BertV1 => "Bert-v1",
            ModelId::ResNet50 => "ResNet-50",
            ModelId::VggNet => "VGGNet",
            ModelId::Lstm2365 => "LSTM-2365",
            ModelId::ResNet20 => "ResNet-20",
            ModelId::Ssd => "SSD",
            ModelId::Dssm2365 => "DSSM-2365",
            ModelId::Dssm2389 => "DSSM-2389",
            ModelId::DeepSpeech => "DeepSpeech",
            ModelId::MobileNet => "MobileNet",
            ModelId::TextCnn69 => "TextCNN-69",
            ModelId::Mnist => "MNIST",
        }
    }

    /// Builds the full specification (metadata + operator DAG).
    pub fn spec(self) -> ModelSpec {
        match self {
            ModelId::BertV1 => bert(),
            ModelId::ResNet50 => resnet50(),
            ModelId::VggNet => vggnet(),
            ModelId::Lstm2365 => lstm2365(),
            ModelId::ResNet20 => resnet20(),
            ModelId::Ssd => ssd(),
            ModelId::Dssm2365 => dssm(ModelId::Dssm2365, 25.0, 0.060),
            ModelId::Dssm2389 => dssm(ModelId::Dssm2389, 26.0, 0.065),
            ModelId::DeepSpeech => deepspeech(),
            ModelId::MobileNet => mobilenet(),
            ModelId::TextCnn69 => textcnn(),
            ModelId::Mnist => mnist(),
        }
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a model name does not match the zoo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError {
    name: String,
}

impl std::fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown model {:?} (see ModelId::all for the zoo)",
            self.name
        )
    }
}

impl std::error::Error for ParseModelError {}

impl std::str::FromStr for ModelId {
    type Err = ParseModelError;

    /// Parses a model by its display name, case-insensitively and
    /// ignoring separators (`"resnet50"` and `"ResNet-50"` both work).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = |x: &str| {
            x.chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_ascii_lowercase()
        };
        let wanted = norm(s);
        ModelId::all()
            .into_iter()
            .find(|id| norm(id.name()) == wanted)
            .ok_or_else(|| ParseModelError {
                name: s.to_string(),
            })
    }
}

/// A fully-specified inference model: Table 1 metadata plus its
/// operator DAG.
///
/// # Example
///
/// ```
/// use infless_models::ModelId;
///
/// let spec = ModelId::ResNet50.spec();
/// assert_eq!(spec.name(), "ResNet-50");
/// // Total DAG work matches Table 1's 3.89 GFLOPs within a few percent.
/// assert!((spec.gflops() - 3.89).abs() / 3.89 < 0.10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    id: ModelId,
    size_mb: f64,
    input_kb: f64,
    dag: OperatorDag,
}

impl ModelSpec {
    fn new(id: ModelId, size_mb: f64, input_kb: f64, dag: OperatorDag) -> Self {
        ModelSpec {
            id,
            size_mb,
            input_kb,
            dag,
        }
    }

    /// The model's identifier.
    pub fn id(&self) -> ModelId {
        self.id
    }

    /// The model's display name.
    pub fn name(&self) -> &'static str {
        self.id.name()
    }

    /// The model artifact size in MB (Table 1 "Network Size").
    pub fn size_mb(&self) -> f64 {
        self.size_mb
    }

    /// Input payload size per sample in KB (drives PCIe transfer time).
    pub fn input_kb(&self) -> f64 {
        self.input_kb
    }

    /// The operator DAG.
    pub fn dag(&self) -> &OperatorDag {
        &self.dag
    }

    /// Total per-sample work in GFLOPs (sum over the DAG).
    pub fn gflops(&self) -> f64 {
        self.dag.total(|op| op.gflops())
    }
}

// --- small construction helpers ------------------------------------------

fn op(kind: OpKind, gflops: f64) -> Operator {
    Operator::new(kind, gflops)
}

/// A tiny elementwise epsilon used for activation/normalization nodes.
const EW: f64 = 5e-5;

fn mnist() -> ModelSpec {
    let mut b = DagBuilder::new();
    b.chain(
        None,
        [
            op(OpKind::Reshape, EW),
            op(OpKind::MatMul, 0.0045),
            op(OpKind::Relu, EW),
            op(OpKind::MatMul, 0.0040),
            op(OpKind::Relu, EW),
            op(OpKind::MatMul, 0.0012),
            op(OpKind::Softmax, EW),
        ],
    );
    ModelSpec::new(ModelId::Mnist, 0.072, 0.6, b.build())
}

fn textcnn() -> ModelSpec {
    let mut b = DagBuilder::new();
    let embed = b.node(op(OpKind::Embedding, 0.005), &[]);
    // Three parallel convolution branches with kernel sizes 3/4/5.
    let mut tails = Vec::new();
    for _ in 0..3 {
        let tail = b
            .chain(
                Some(embed),
                [
                    op(OpKind::Conv2d, 0.148),
                    op(OpKind::Relu, EW),
                    op(OpKind::MaxPool, 0.001),
                ],
            )
            .expect("non-empty chain");
        tails.push(tail);
    }
    let cat = b.join(op(OpKind::ConcatV2, 0.001), &tails);
    b.chain(
        Some(cat),
        [
            op(OpKind::MatMul, 0.060),
            op(OpKind::Relu, EW),
            op(OpKind::MatMul, 0.012),
            op(OpKind::Softmax, EW),
        ],
    );
    ModelSpec::new(ModelId::TextCnn69, 11.0, 2.0, b.build())
}

fn mobilenet() -> ModelSpec {
    let mut b = DagBuilder::new();
    let mut tail = b.chain(
        None,
        [
            op(OpKind::Conv2d, 0.005),
            op(OpKind::BatchNorm, EW),
            op(OpKind::Relu, EW),
        ],
    );
    for _ in 0..13 {
        tail = b.chain(
            tail,
            [
                op(OpKind::DepthwiseConv2d, 0.0008),
                op(OpKind::BatchNorm, EW),
                op(OpKind::Relu, EW),
                op(OpKind::Conv2d, 0.0024),
                op(OpKind::BatchNorm, EW),
                op(OpKind::Relu, EW),
            ],
        );
    }
    b.chain(
        tail,
        [
            op(OpKind::AvgPool, 0.0002),
            op(OpKind::MatMul, 0.002),
            op(OpKind::Softmax, EW),
        ],
    );
    ModelSpec::new(ModelId::MobileNet, 17.0, 150.0, b.build())
}

fn dssm(id: ModelId, size_mb: f64, tower_gf: f64) -> ModelSpec {
    // Two parallel towers (query / document) followed by a cosine head.
    let mut b = DagBuilder::new();
    let mut tails = Vec::new();
    for _ in 0..2 {
        let embed = b.node(op(OpKind::Embedding, 0.002), &[]);
        let tail = b
            .chain(
                Some(embed),
                [
                    op(OpKind::MatMul, tower_gf * 0.5),
                    op(OpKind::Tanh, EW),
                    op(OpKind::MatMul, tower_gf * 0.33),
                    op(OpKind::Tanh, EW),
                    op(OpKind::MatMul, tower_gf * 0.17),
                    op(OpKind::Tanh, EW),
                ],
            )
            .expect("non-empty chain");
        tails.push(tail);
    }
    let mul = b.join(op(OpKind::Mul, 0.002), &tails);
    b.chain(Some(mul), [op(OpKind::Sum, 0.001), op(OpKind::Sigmoid, EW)]);
    ModelSpec::new(id, size_mb, 2.0, b.build())
}

fn lstm2365() -> ModelSpec {
    // An attention LSTM for question answering. Each of the 20 time
    // steps computes the four gate projections as parallel MatMuls, then
    // joins them element-wise — this is what gives LSTM-2365 its ~80
    // MatMul call sites and its overlap-heavy DAG (the paper notes it
    // has the highest COP prediction error for exactly this reason).
    let mut b = DagBuilder::new();
    let mut tail = b.node(op(OpKind::Embedding, 0.002), &[]);
    for _ in 0..20 {
        let mut gates = Vec::new();
        for _ in 0..4 {
            gates.push(b.node(op(OpKind::MatMul, 0.0008), &[tail]));
        }
        let add = b.join(op(OpKind::Add, EW), &gates);
        tail = b
            .chain(
                Some(add),
                [
                    op(OpKind::Sigmoid, EW),
                    op(OpKind::Tanh, EW),
                    op(OpKind::Mul, EW),
                ],
            )
            .expect("non-empty chain");
    }
    // Attention head: three parallel projections, softmax, context matmul.
    let q = b.node(op(OpKind::MatMul, 0.007), &[tail]);
    let k = b.node(op(OpKind::MatMul, 0.007), &[tail]);
    let v = b.node(op(OpKind::MatMul, 0.007), &[tail]);
    let att = b.join(op(OpKind::Attention, 0.006), &[q, k, v]);
    b.chain(
        Some(att),
        [
            op(OpKind::Softmax, EW),
            op(OpKind::MatMul, 0.009),
            op(OpKind::Softmax, EW),
        ],
    );
    ModelSpec::new(ModelId::Lstm2365, 39.0, 2.0, b.build())
}

fn deepspeech() -> ModelSpec {
    let mut b = DagBuilder::new();
    let tail = b.chain(
        None,
        [
            op(OpKind::Conv2d, 0.15),
            op(OpKind::Relu, EW),
            op(OpKind::Conv2d, 0.15),
            op(OpKind::Relu, EW),
        ],
    );
    let tail = b.chain(tail, (0..5).map(|_| op(OpKind::LstmCell, 0.20)));
    b.chain(tail, [op(OpKind::MatMul, 0.20), op(OpKind::Softmax, EW)]);
    ModelSpec::new(ModelId::DeepSpeech, 17.0, 100.0, b.build())
}

fn ssd() -> ModelSpec {
    let mut b = DagBuilder::new();
    // VGG-style backbone.
    let mut tail: Option<NodeId> = None;
    for i in 0..10 {
        tail = b.chain(tail, [op(OpKind::Conv2d, 0.15), op(OpKind::Relu, EW)]);
        if i % 3 == 2 {
            tail = b.chain(tail, [op(OpKind::MaxPool, 0.0005)]);
        }
    }
    let backbone = tail.expect("backbone is non-empty");
    // Six detection heads at different scales, run in parallel.
    let mut heads = Vec::new();
    for _ in 0..6 {
        let h = b
            .chain(
                Some(backbone),
                [op(OpKind::Conv2d, 0.06), op(OpKind::Conv2d, 0.02)],
            )
            .expect("non-empty chain");
        heads.push(h);
    }
    let cat = b.join(op(OpKind::ConcatV2, 0.002), &heads);
    b.chain(Some(cat), [op(OpKind::Softmax, EW)]);
    ModelSpec::new(ModelId::Ssd, 29.0, 150.0, b.build())
}

fn residual_stack(
    b: &mut DagBuilder,
    mut tail: NodeId,
    blocks: usize,
    convs_per_block: &[(OpKind, f64)],
    downsample_every: usize,
    downsample_gf: f64,
) -> NodeId {
    for i in 0..blocks {
        let mut main = tail;
        for &(kind, gf) in convs_per_block {
            main = b.node(op(kind, gf), &[main]);
            main = b.node(op(OpKind::BatchNorm, EW), &[main]);
            main = b.node(op(OpKind::Relu, EW), &[main]);
        }
        // Shortcut branch: identity, or a 1x1 conv on downsampling blocks.
        let shortcut = if downsample_every > 0 && i % downsample_every == 0 {
            b.node(op(OpKind::Conv2d, downsample_gf), &[tail])
        } else {
            b.node(op(OpKind::Reshape, 0.0), &[tail])
        };
        let add = b.join(op(OpKind::Add, EW), &[main, shortcut]);
        tail = b.node(op(OpKind::Relu, EW), &[add]);
    }
    tail
}

fn resnet20() -> ModelSpec {
    let mut b = DagBuilder::new();
    let stem = b
        .chain(
            None,
            [
                op(OpKind::Conv2d, 0.10),
                op(OpKind::BatchNorm, EW),
                op(OpKind::Relu, EW),
            ],
        )
        .expect("non-empty chain");
    let body = residual_stack(
        &mut b,
        stem,
        9,
        &[(OpKind::Conv2d, 0.072), (OpKind::Conv2d, 0.072)],
        3,
        0.015,
    );
    b.chain(
        Some(body),
        [
            op(OpKind::AvgPool, 0.0002),
            op(OpKind::MatMul, 0.05),
            op(OpKind::Softmax, EW),
        ],
    );
    ModelSpec::new(ModelId::ResNet20, 36.0, 150.0, b.build())
}

fn resnet50() -> ModelSpec {
    let mut b = DagBuilder::new();
    let stem = b
        .chain(
            None,
            [
                op(OpKind::Conv2d, 0.24),
                op(OpKind::BatchNorm, EW),
                op(OpKind::Relu, EW),
                op(OpKind::MaxPool, 0.0005),
            ],
        )
        .expect("non-empty chain");
    let body = residual_stack(
        &mut b,
        stem,
        16,
        &[
            (OpKind::Conv2d, 0.070),
            (OpKind::Conv2d, 0.070),
            (OpKind::Conv2d, 0.070),
        ],
        4,
        0.020,
    );
    b.chain(
        Some(body),
        [
            op(OpKind::AvgPool, 0.0002),
            op(OpKind::MatMul, 0.004),
            op(OpKind::Softmax, EW),
        ],
    );
    ModelSpec::new(ModelId::ResNet50, 98.0, 150.0, b.build())
}

fn vggnet() -> ModelSpec {
    let mut b = DagBuilder::new();
    let mut tail: Option<NodeId> = None;
    for i in 0..13 {
        tail = b.chain(tail, [op(OpKind::Conv2d, 0.38), op(OpKind::Relu, EW)]);
        if [1, 3, 6, 9, 12].contains(&i) {
            tail = b.chain(tail, [op(OpKind::MaxPool, 0.0005)]);
        }
    }
    b.chain(
        tail,
        [
            op(OpKind::MatMul, 0.25),
            op(OpKind::Relu, EW),
            op(OpKind::MatMul, 0.20),
            op(OpKind::Relu, EW),
            op(OpKind::MatMul, 0.10),
            op(OpKind::Softmax, EW),
        ],
    );
    ModelSpec::new(ModelId::VggNet, 69.0, 150.0, b.build())
}

fn bert() -> ModelSpec {
    let mut b = DagBuilder::new();
    let mut tail = b
        .chain(
            None,
            [op(OpKind::Embedding, 0.010), op(OpKind::LayerNorm, EW)],
        )
        .expect("non-empty chain");
    for _ in 0..12 {
        // Self-attention: parallel Q/K/V projections.
        let q = b.node(op(OpKind::FusedMatMul, 0.13), &[tail]);
        let k = b.node(op(OpKind::FusedMatMul, 0.13), &[tail]);
        let v = b.node(op(OpKind::FusedMatMul, 0.13), &[tail]);
        let att = b.join(op(OpKind::Attention, 0.25), &[q, k, v]);
        let proj = b
            .chain(
                Some(att),
                [op(OpKind::Softmax, EW), op(OpKind::MatMul, 0.13)],
            )
            .expect("non-empty chain");
        let res1 = b.join(op(OpKind::Add, EW), &[proj, tail]);
        let norm1 = b.node(op(OpKind::LayerNorm, EW), &[res1]);
        // Feed-forward block.
        let ffn = b
            .chain(
                Some(norm1),
                [
                    op(OpKind::MatMul, 0.50),
                    op(OpKind::Gelu, EW),
                    op(OpKind::MatMul, 0.50),
                ],
            )
            .expect("non-empty chain");
        let res2 = b.join(op(OpKind::Add, EW), &[ffn, norm1]);
        tail = b.node(op(OpKind::LayerNorm, EW), &[res2]);
    }
    b.chain(
        Some(tail),
        [
            op(OpKind::Gather, EW),
            op(OpKind::MatMul, 0.06),
            op(OpKind::Tanh, EW),
        ],
    );
    ModelSpec::new(ModelId::BertV1, 391.0, 4.0, b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 GFLOPs targets.
    fn table1_gflops(id: ModelId) -> f64 {
        match id {
            ModelId::BertV1 => 22.2,
            ModelId::ResNet50 => 3.89,
            ModelId::VggNet => 5.55,
            ModelId::Lstm2365 => 0.10,
            ModelId::ResNet20 => 1.55,
            ModelId::Ssd => 2.02,
            ModelId::Dssm2365 => 0.13,
            ModelId::Dssm2389 => 0.14,
            ModelId::DeepSpeech => 1.60,
            ModelId::MobileNet => 0.05,
            ModelId::TextCnn69 => 0.53,
            ModelId::Mnist => 0.01,
        }
    }

    #[test]
    fn gflops_match_table1_within_10pct() {
        for id in ModelId::all() {
            let spec = id.spec();
            let target = table1_gflops(id);
            let rel = (spec.gflops() - target).abs() / target;
            assert!(
                rel < 0.10,
                "{id}: DAG work {:.4} GF vs Table 1 {:.4} GF ({:.1}% off)",
                spec.gflops(),
                target,
                rel * 100.0
            );
        }
    }

    #[test]
    fn sizes_are_table1_ordered() {
        // Table 1 lists models in descending size; `all()` follows it
        // except for the appended DSSM-2389 variant.
        let sizes: Vec<f64> = ModelId::all()
            .iter()
            .filter(|id| **id != ModelId::Dssm2389)
            .map(|id| id.spec().size_mb())
            .collect();
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "sizes out of order: {w:?}");
        }
    }

    #[test]
    fn lstm_has_many_matmul_calls() {
        // Paper Fig. 7a: MatMul is called 81 times in LSTM-2365.
        let spec = ModelId::Lstm2365.spec();
        let counts = spec.dag().kind_counts();
        let matmuls = counts[&OpKind::MatMul];
        assert!(
            (75..=90).contains(&matmuls),
            "expected ~81 MatMul call sites, got {matmuls}"
        );
    }

    #[test]
    fn resnet50_uses_few_distinct_kinds() {
        // Paper Fig. 7b: ResNet-50 contains 8 distinct operators.
        let spec = ModelId::ResNet50.spec();
        let distinct = spec.dag().kind_counts().len();
        assert!(
            (7..=10).contains(&distinct),
            "expected ~8 distinct kinds, got {distinct}"
        );
    }

    #[test]
    fn conv_dominates_resnet50_work() {
        // Paper: >95% of ResNet-50 execution time is Conv2D.
        let spec = ModelId::ResNet50.spec();
        let totals = spec.dag().kind_totals(|op| op.gflops());
        let conv = totals[&OpKind::Conv2d];
        assert!(conv / spec.gflops() > 0.90);
    }

    #[test]
    fn matmul_dominates_lstm_work() {
        let spec = ModelId::Lstm2365.spec();
        let totals = spec.dag().kind_totals(|op| op.gflops());
        let mm = totals[&OpKind::MatMul] + totals.get(&OpKind::Attention).unwrap_or(&0.0);
        assert!(mm / spec.gflops() > 0.75);
    }

    #[test]
    fn lstm_is_the_most_overlapped_small_model() {
        // Parallel slack relative to total work should be largest for
        // LSTM-2365 among the Q&A models — the paper's explanation for
        // its highest COP error.
        let rel_slack = |id: ModelId| {
            let spec = id.spec();
            spec.dag().parallel_slack(|op| op.gflops()) / spec.gflops()
        };
        assert!(rel_slack(ModelId::Lstm2365) > rel_slack(ModelId::TextCnn69));
        assert!(rel_slack(ModelId::Lstm2365) > rel_slack(ModelId::MobileNet));
    }

    #[test]
    fn model_names_parse_back() {
        for id in ModelId::all() {
            assert_eq!(id.name().parse::<ModelId>().unwrap(), id);
        }
        assert_eq!("resnet50".parse::<ModelId>().unwrap(), ModelId::ResNet50);
        assert_eq!("LSTM_2365".parse::<ModelId>().unwrap(), ModelId::Lstm2365);
        let err = "inception".parse::<ModelId>().unwrap_err();
        assert!(err.to_string().contains("unknown model"));
    }

    #[test]
    fn every_spec_builds_and_reports_metadata() {
        for id in ModelId::all() {
            let spec = id.spec();
            assert_eq!(spec.id(), id);
            assert!(!spec.name().is_empty());
            assert!(spec.size_mb() > 0.0);
            assert!(spec.input_kb() > 0.0);
            assert!(!spec.dag().is_empty());
            assert_eq!(spec.name(), id.to_string());
        }
    }

    #[test]
    fn distinct_operator_vocabulary_is_shared() {
        // Paper Observation #6: ~1000 call sites but only ~71 distinct
        // operators across models. Our zoo shares a small vocabulary.
        let mut call_sites = 0;
        let mut kinds = std::collections::BTreeSet::new();
        for id in ModelId::all() {
            let spec = id.spec();
            call_sites += spec.dag().len();
            kinds.extend(spec.dag().kind_counts().into_keys());
        }
        assert!(call_sites > 500, "zoo has {call_sites} call sites");
        assert!(kinds.len() < 30, "vocabulary of {} kinds", kinds.len());
    }
}
