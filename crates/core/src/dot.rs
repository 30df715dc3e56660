//! Graphviz (DOT) export of Field Layout Graphs.
//!
//! The paper's tool is *semi-automatic*: a kernel engineer reads the
//! graph before trusting a layout. A rendered FLG makes the trade-off
//! visible at a glance — green edges pull fields together (CycleGain),
//! red edges push them apart (CycleLoss), node size tracks hotness, and
//! cluster membership is drawn as subgraph boxes.

use crate::cluster::Clustering;
use crate::flg::Flg;
use slopt_ir::types::{FieldIdx, RecordType};
use std::fmt::Write as _;

/// Renders the FLG (and optionally its clustering) as a DOT digraph.
/// Fields that are cold (hotness 0) and have no edge are omitted.
pub fn to_dot(record: &RecordType, flg: &Flg, clustering: Option<&Clustering>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph flg_{} {{", record.name());
    let _ = writeln!(out, "  graph [overlap=false, splines=true];");
    let _ = writeln!(
        out,
        "  node [shape=ellipse, style=filled, fillcolor=white];"
    );

    let edges = flg.edges();
    let mut visible = vec![false; record.field_count()];
    for &(a, b, _) in &edges {
        visible[a.index()] = true;
        visible[b.index()] = true;
    }
    for f in record.field_indices() {
        if flg.hotness(f) > 0 {
            visible[f.index()] = true;
        }
    }

    let max_hot = record
        .field_indices()
        .map(|f| flg.hotness(f))
        .max()
        .unwrap_or(0)
        .max(1);

    let node = |out: &mut String, f: FieldIdx| {
        let h = flg.hotness(f);
        // Hotter fields get a warmer fill.
        let heat = (h as f64 / max_hot as f64 * 9.0).round() as u32;
        let _ = writeln!(
            out,
            "    f{} [label=\"{}\\nh={}\", fillcolor=\"/ylorrd9/{}\"];",
            f.0,
            record.field(f).name(),
            h,
            heat.clamp(1, 9)
        );
    };

    match clustering {
        Some(c) => {
            for (ci, cluster) in c.clusters().iter().enumerate() {
                let members: Vec<FieldIdx> = cluster
                    .iter()
                    .copied()
                    .filter(|f| visible[f.index()])
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let _ = writeln!(out, "  subgraph cluster_{ci} {{");
                let _ = writeln!(out, "    label=\"line cluster {ci}\";");
                for f in members {
                    node(&mut out, f);
                }
                let _ = writeln!(out, "  }}");
            }
        }
        None => {
            for f in record.field_indices() {
                if visible[f.index()] {
                    node(&mut out, f);
                }
            }
        }
    }

    for (a, b, w) in edges {
        let (color, style) = if w >= 0.0 {
            ("forestgreen", "solid")
        } else {
            ("crimson", "bold")
        };
        let _ = writeln!(
            out,
            "  f{} -- f{} [label=\"{:+.0}\", color={color}, style={style}];",
            a.0, b.0, w
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::cluster;
    use slopt_ir::types::{FieldType, PrimType, RecordId};

    fn setup() -> (RecordType, Flg) {
        let rec = RecordType::new(
            "S",
            vec![
                ("hot", FieldType::Prim(PrimType::U64)),
                ("warm", FieldType::Prim(PrimType::U64)),
                ("counter", FieldType::Prim(PrimType::U64)),
                ("dead", FieldType::Prim(PrimType::U64)),
            ],
        );
        let flg = Flg::from_parts(
            RecordId(0),
            vec![100, 50, 40, 0],
            vec![
                (FieldIdx(0), FieldIdx(1), 30.0),
                (FieldIdx(0), FieldIdx(2), -80.0),
            ],
        );
        (rec, flg)
    }

    /// The whole rendering, byte for byte: hot fields shaded, positive
    /// edges green, negative edges red.
    #[test]
    fn dot_contains_nodes_edges_and_colors() {
        let (rec, flg) = setup();
        assert_eq!(
            to_dot(&rec, &flg, None),
            "graph flg_S {
  graph [overlap=false, splines=true];
  node [shape=ellipse, style=filled, fillcolor=white];
    f0 [label=\"hot\\nh=100\", fillcolor=\"/ylorrd9/9\"];
    f1 [label=\"warm\\nh=50\", fillcolor=\"/ylorrd9/5\"];
    f2 [label=\"counter\\nh=40\", fillcolor=\"/ylorrd9/4\"];
  f0 -- f1 [label=\"+30\", color=forestgreen, style=solid];
  f0 -- f2 [label=\"-80\", color=crimson, style=bold];
}
"
        );
    }

    #[test]
    fn isolated_cold_fields_are_hidden_by_default() {
        let (rec, flg) = setup();
        let dot = to_dot(&rec, &flg, None);
        assert!(!dot.contains("dead"));
    }

    /// The whole rendering, byte for byte, with the clustering's boxes.
    #[test]
    fn clustering_renders_subgraph_boxes() {
        let (rec, flg) = setup();
        let c = cluster(&flg, &rec, 128, &slopt_obs::Obs::disabled());
        assert_eq!(
            to_dot(&rec, &flg, Some(&c)),
            "graph flg_S {
  graph [overlap=false, splines=true];
  node [shape=ellipse, style=filled, fillcolor=white];
  subgraph cluster_0 {
    label=\"line cluster 0\";
    f0 [label=\"hot\\nh=100\", fillcolor=\"/ylorrd9/9\"];
    f1 [label=\"warm\\nh=50\", fillcolor=\"/ylorrd9/5\"];
  }
  subgraph cluster_1 {
    label=\"line cluster 1\";
    f2 [label=\"counter\\nh=40\", fillcolor=\"/ylorrd9/4\"];
  }
  f0 -- f1 [label=\"+30\", color=forestgreen, style=solid];
  f0 -- f2 [label=\"-80\", color=crimson, style=bold];
}
"
        );
    }
}
