//! Traced replay of `Pipeline::compress` and `Pipeline::reconstruct`
//! from each layer's public functions.
//!
//! The replay mirrors the engine step by step (slab split, worker pool,
//! model, delta codec, artifact and chunk container) and wraps each
//! layer call in a span. It must rebuild exactly the bytes the untraced
//! pipeline wrote: [`compress`] returns the rebuilt `rep` and `delta`
//! sections so the caller can compare them with the untraced artifact's
//! sections, and the whole stream so the caller can compare that too.
//! The `meta` section and the chunk directory's model tag are copied
//! from the untraced artifact, since they only restate the
//! configuration.

use crate::trace::Ctx;
use lrm_compress::{DecodeError, DecodeResult, Shape};
use lrm_core::projection::{
    multi_base_precondition, multi_base_reconstruct, one_base_precondition, one_base_reconstruct,
};
use lrm_core::{LossyCodec, Pipeline, ReducedModelKind};
use lrm_datasets::Field;
use lrm_io::{Artifact, ChunkEntry, ChunkedArtifact};
use lrm_linalg::{svd, Matrix, Pca};
use lrm_parallel::{Decomposition, WorkerPool};
use lrm_wavelet::{SparseMatrix, WaveletModel};

/// The sections one chunk of a replayed compression produced.
pub struct Sections {
    pub rep: Vec<u8>,
    pub delta: Vec<u8>,
}

/// A replayed compression: the full stream plus each chunk's sections.
pub struct Replayed {
    pub bytes: Vec<u8>,
    pub chunks: Vec<Sections>,
}

/// The codec family of a configuration, as used in span names.
pub fn family(codec: &LossyCodec) -> usize {
    match codec {
        LossyCodec::SzRel(_) | LossyCodec::SzAbs(_) => 0,
        LossyCodec::ZfpPrecision(_) => 1,
        LossyCodec::FpcLossless(_) => 2,
    }
}

pub const FAMILIES: [&str; 3] = ["sz", "zfp", "fpc"];
const ENCODE_SPANS: [&str; 3] = [
    "compress.sz_encode",
    "compress.zfp_encode",
    "compress.fpc_encode",
];
const DECODE_SPANS: [&str; 3] = [
    "compress.sz_decode",
    "compress.zfp_decode",
    "compress.fpc_decode",
];
const ENCODE_BYTES: [&str; 3] = [
    "compress.sz_encode_bytes",
    "compress.zfp_encode_bytes",
    "compress.fpc_encode_bytes",
];
const DECODE_BYTES: [&str; 3] = [
    "compress.sz_decode_bytes",
    "compress.zfp_decode_bytes",
    "compress.fpc_decode_bytes",
];

fn encode(ctx: Ctx, codec: &LossyCodec, data: &[f64], shape: Shape) -> Vec<u8> {
    let f = family(codec);
    let out = ctx.span(ENCODE_SPANS[f], |_| codec.compress(data, shape));
    ctx.count(ENCODE_BYTES[f], (data.len() * 8) as f64);
    ctx.count("compress.bytes_out", out.len() as f64);
    out
}

fn decode(ctx: Ctx, codec: &LossyCodec, bytes: &[u8], shape: Shape) -> DecodeResult<Vec<f64>> {
    let f = family(codec);
    let out = ctx.span(DECODE_SPANS[f], |_| codec.decompress(bytes, shape))?;
    ctx.count(DECODE_BYTES[f], (out.len() * 8) as f64);
    Ok(out)
}

/// Reads the sections of the untraced artifact: one `Artifact` per
/// chunk, with its directory entry when the stream is chunked.
pub fn untraced_chunks(bytes: &[u8]) -> DecodeResult<Vec<(Option<ChunkEntry>, Artifact)>> {
    let container = ChunkedArtifact::from_bytes(bytes)?;
    let chunked = container.global_dims != [0, 0, 0];
    container
        .chunks()
        .map(|(e, p)| Ok((chunked.then_some(*e), Artifact::from_bytes(p)?)))
        .collect()
}

fn section<'b>(art: &'b Artifact, name: &'static str) -> DecodeResult<&'b [u8]> {
    art.get(name).ok_or(DecodeError::Corrupt { what: name })
}

/// Replays `pipeline.compress(field)`. `untraced` is the stream the
/// untraced call produced; only its `meta` sections and chunk model tags
/// are read.
pub fn compress(
    ctx: Ctx,
    pipeline: &Pipeline,
    field: &Field,
    untraced: &[u8],
) -> DecodeResult<Replayed> {
    let reference = untraced_chunks(untraced)?;
    let cfg = *pipeline.config();
    let chunks = pipeline.effective_chunks(field.shape);
    ctx.span("engine.compress", |ctx| {
        if chunks <= 1 {
            let meta = section(&reference[0].1, "meta")?.to_vec();
            let (bytes, sections) = compress_chunk(ctx, field, &cfg, meta);
            return Ok(Replayed {
                bytes,
                chunks: vec![sections],
            });
        }
        let [nx, ny, nz] = field.shape.dims;
        let decomp = Decomposition::new([nx, ny, nz], [1, 1, chunks]);
        let plane = nx * ny;
        let mut slabs = Vec::with_capacity(chunks);
        for (r, (_, art)) in reference.iter().enumerate().take(chunks) {
            let sd = decomp.subdomain(r);
            let data = field.data[sd.z.0 * plane..sd.z.1 * plane].to_vec();
            let slab = Field::new(field.name.clone(), data, Shape::d3(nx, ny, sd.z.1 - sd.z.0));
            slabs.push((sd.z.0, slab, section(art, "meta")?.to_vec()));
        }
        let parts = ctx.span("parallel.run", |ctx| {
            WorkerPool::new(pipeline.threads()).run(slabs, |_, (z0, slab, meta)| {
                ctx.span("parallel.chunk", |ctx| {
                    let dims = slab.shape.dims;
                    let (bytes, sections) = compress_chunk(ctx, &slab, &cfg, meta);
                    (z0, dims, bytes, sections)
                })
            })
        });
        let mut container = ChunkedArtifact::new([nx as u32, ny as u32, nz as u32]);
        let mut sections = Vec::with_capacity(parts.len());
        for ((z0, dims, bytes, s), (entry, _)) in parts.into_iter().zip(&reference) {
            let tag = entry.map_or(0, |e| e.model_tag);
            container.push(
                ChunkEntry {
                    z_offset: z0 as u32,
                    dims: dims.map(|d| d as u32),
                    model_tag: tag,
                },
                bytes,
            );
            sections.push(s);
        }
        let bytes = ctx.span("io.container_encode", |_| container.to_bytes());
        ctx.count("io.container_bytes", bytes.len() as f64);
        Ok(Replayed {
            bytes,
            chunks: sections,
        })
    })
}

fn compress_chunk(
    ctx: Ctx,
    field: &Field,
    cfg: &lrm_core::PipelineConfig,
    meta: Vec<u8>,
) -> (Vec<u8>, Sections) {
    let (rep, delta) = precondition(ctx, field, cfg);
    let delta_codec = if cfg.model == ReducedModelKind::Direct {
        &cfg.orig
    } else {
        &cfg.delta
    };
    let delta_shape = if cfg.scan_1d {
        Shape::d1(field.shape.len())
    } else {
        field.shape
    };
    let delta_bytes = encode(ctx, delta_codec, &delta, delta_shape);
    let bytes = ctx.span("io.container_encode", |_| {
        let mut artifact = Artifact::new();
        artifact.push("meta", meta);
        artifact.push("rep", rep.clone());
        artifact.push("delta", delta_bytes.clone());
        artifact.to_bytes()
    });
    ctx.count("io.container_bytes", bytes.len() as f64);
    (
        bytes,
        Sections {
            rep,
            delta: delta_bytes,
        },
    )
}

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn put_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn minus(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// The reduced model's representation bytes and the delta field.
fn precondition(ctx: Ctx, field: &Field, cfg: &lrm_core::PipelineConfig) -> (Vec<u8>, Vec<f64>) {
    match cfg.model {
        ReducedModelKind::Direct => (Vec::new(), field.data.clone()),
        ReducedModelKind::OneBase => ctx.span("projection.precondition", |_| {
            let out = one_base_precondition(field, &cfg.orig);
            (out.rep_bytes, out.delta)
        }),
        ReducedModelKind::MultiBase(gz) => ctx.span("projection.precondition", |_| {
            let out = multi_base_precondition(field, gz, &cfg.orig);
            (out.rep_bytes, out.delta)
        }),
        ReducedModelKind::Pca => ctx.span("dimred.precondition", |ctx| {
            let (m, n) = field.matrix_dims();
            let mat = Matrix::from_vec(m, n, field.data.clone());
            let pca = ctx.span("linalg.pca_fit", |_| Pca::fit(&mat));
            let k = pca
                .components_for_variance(cfg.variance_fraction)
                .max(1)
                .min(n);
            let scores = ctx.span("linalg.pca_transform", |_| pca.transform(&mat, k));
            let shape = Shape::d2(k, m);
            let scores_bytes = encode(ctx, &cfg.orig, scores.as_slice(), shape);
            let mut rep = Vec::new();
            put_u32(&mut rep, m);
            put_u32(&mut rep, n);
            put_u32(&mut rep, k);
            put_f64s(&mut rep, &pca.means);
            let basis = pca.components.take_cols(k);
            put_f64s(&mut rep, basis.as_slice());
            put_u32(&mut rep, scores_bytes.len());
            rep.extend_from_slice(&scores_bytes);
            let recon =
                decode(ctx, &cfg.orig, &scores_bytes, shape).expect("fresh score stream decodes");
            let approx = pca_rebuild(ctx, &Matrix::from_vec(m, k, recon), &basis, &pca.means);
            (rep, minus(&field.data, approx.as_slice()))
        }),
        ReducedModelKind::Svd => ctx.span("dimred.precondition", |ctx| {
            let (m, n) = field.matrix_dims();
            let mat = Matrix::from_vec(m, n, field.data.clone());
            let dec = ctx.span("linalg.svd", |_| svd(&mat));
            let k = dec
                .rank_for_energy(cfg.variance_fraction)
                .max(1)
                .min(n.min(m));
            let uk = dec.u.take_cols(k);
            let vk = dec.v.take_cols(k);
            let sigma = &dec.sigma[..k];
            let shape = Shape::d2(k, m);
            let u_bytes = encode(ctx, &cfg.orig, uk.as_slice(), shape);
            let mut rep = Vec::new();
            put_u32(&mut rep, m);
            put_u32(&mut rep, n);
            put_u32(&mut rep, k);
            put_f64s(&mut rep, sigma);
            put_f64s(&mut rep, vk.as_slice());
            put_u32(&mut rep, u_bytes.len());
            rep.extend_from_slice(&u_bytes);
            let recon = decode(ctx, &cfg.orig, &u_bytes, shape).expect("fresh U stream decodes");
            let approx = svd_rebuild(ctx, &Matrix::from_vec(m, k, recon), sigma, &vk);
            (rep, minus(&field.data, approx.as_slice()))
        }),
        ReducedModelKind::Wavelet => ctx.span("dimred.precondition", |ctx| {
            let (m, n) = field.matrix_dims();
            let model = ctx.span("wavelet.fit", |_| {
                WaveletModel::fit(&field.data, m, n, cfg.theta_fraction)
            });
            let approx = ctx.span("wavelet.reconstruct", |_| model.reconstruct());
            let delta = minus(&field.data, &approx);
            let mut rep = Vec::new();
            put_u32(&mut rep, m);
            put_u32(&mut rep, n);
            let sb = model.coeffs.to_bytes();
            put_u32(&mut rep, sb.len());
            rep.extend_from_slice(&sb);
            (rep, delta)
        }),
        other => panic!("replay does not cover {other:?}"),
    }
}

fn pca_rebuild(ctx: Ctx, scores: &Matrix, basis: &Matrix, means: &[f64]) -> Matrix {
    let approx = ctx.span("linalg.matmul", |_| scores.matmul(&basis.transpose()));
    Matrix::from_fn(approx.rows(), approx.cols(), |r, c| {
        approx.get(r, c) + means[c]
    })
}

fn svd_rebuild(ctx: Ctx, u: &Matrix, sigma: &[f64], v: &Matrix) -> Matrix {
    let k = sigma.len();
    let us = Matrix::from_fn(u.rows(), k, |r, c| u.get(r, c) * sigma[c]);
    ctx.span("linalg.matmul", |_| us.matmul(&v.transpose()))
}

/// Replays `pipeline.reconstruct(bytes)` for a field of `shape`
/// compressed under `pipeline`'s configuration.
pub fn reconstruct(
    ctx: Ctx,
    pipeline: &Pipeline,
    bytes: &[u8],
    shape: Shape,
) -> DecodeResult<Vec<f64>> {
    let cfg = *pipeline.config();
    ctx.span("engine.reconstruct", |ctx| {
        let container = ctx.span("io.container_decode", |_| {
            ChunkedArtifact::from_bytes(bytes)
        })?;
        if container.global_dims == [0, 0, 0] {
            let (_, payload) = container.chunks().next().ok_or(DecodeError::Corrupt {
                what: "empty chunked container",
            })?;
            return reconstruct_chunk(ctx, payload, &cfg, shape);
        }
        let plane = shape.dims[0] * shape.dims[1];
        let parts: Vec<(usize, Shape, Vec<u8>)> = container
            .chunks()
            .map(|(e, p)| {
                (
                    e.z_offset as usize,
                    Shape::d3(e.dims[0] as usize, e.dims[1] as usize, e.dims[2] as usize),
                    p.to_vec(),
                )
            })
            .collect();
        let decoded = ctx.span("parallel.run", |ctx| {
            WorkerPool::new(pipeline.threads()).run(parts, |_, (z0, s, payload)| {
                ctx.span("parallel.chunk", |ctx| {
                    (z0, reconstruct_chunk(ctx, &payload, &cfg, s))
                })
            })
        });
        let mut out = vec![0.0f64; shape.len()];
        for (z0, data) in decoded {
            let data = data?;
            out[z0 * plane..z0 * plane + data.len()].copy_from_slice(&data);
        }
        Ok(out)
    })
}

fn get_u32(b: &[u8], pos: &mut usize) -> DecodeResult<usize> {
    let s = b
        .get(*pos..*pos + 4)
        .ok_or(DecodeError::Truncated { what: "rep header" })?;
    *pos += 4;
    Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]) as usize)
}

fn get_f64s(b: &[u8], pos: &mut usize, count: usize) -> DecodeResult<Vec<f64>> {
    let s = b
        .get(*pos..*pos + count * 8)
        .ok_or(DecodeError::Truncated { what: "rep block" })?;
    *pos += count * 8;
    Ok(s.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect())
}

fn get_bytes<'b>(b: &'b [u8], pos: &mut usize) -> DecodeResult<&'b [u8]> {
    let len = get_u32(b, pos)?;
    b.get(*pos..*pos + len)
        .ok_or(DecodeError::Truncated { what: "rep stream" })
}

fn reconstruct_chunk(
    ctx: Ctx,
    payload: &[u8],
    cfg: &lrm_core::PipelineConfig,
    shape: Shape,
) -> DecodeResult<Vec<f64>> {
    let art = ctx.span("io.container_decode", |_| Artifact::from_bytes(payload))?;
    let rep = section(&art, "rep")?;
    let delta_bytes = section(&art, "delta")?;
    let delta_codec = if cfg.model == ReducedModelKind::Direct {
        &cfg.orig
    } else {
        &cfg.delta
    };
    let delta_shape = if cfg.scan_1d {
        Shape::d1(shape.len())
    } else {
        shape
    };
    let delta = decode(ctx, delta_codec, delta_bytes, delta_shape)?;
    let add = |base: &[f64]| -> Vec<f64> { base.iter().zip(&delta).map(|(b, d)| b + d).collect() };
    match cfg.model {
        ReducedModelKind::Direct => Ok(delta),
        ReducedModelKind::OneBase => ctx.span("projection.reconstruct", |_| {
            one_base_reconstruct(rep, &delta, shape, &cfg.orig)
        }),
        ReducedModelKind::MultiBase(gz) => ctx.span("projection.reconstruct", |_| {
            multi_base_reconstruct(rep, &delta, shape, gz, &cfg.orig)
        }),
        ReducedModelKind::Pca => ctx.span("dimred.reconstruct", |ctx| {
            let mut pos = 0;
            let (m, n, k) = (
                get_u32(rep, &mut pos)?,
                get_u32(rep, &mut pos)?,
                get_u32(rep, &mut pos)?,
            );
            let means = get_f64s(rep, &mut pos, n)?;
            let basis = Matrix::from_vec(n, k, get_f64s(rep, &mut pos, n * k)?);
            let stream = get_bytes(rep, &mut pos)?;
            let scores = decode(ctx, &cfg.orig, stream, Shape::d2(k, m))?;
            let approx = pca_rebuild(ctx, &Matrix::from_vec(m, k, scores), &basis, &means);
            Ok(add(approx.as_slice()))
        }),
        ReducedModelKind::Svd => ctx.span("dimred.reconstruct", |ctx| {
            let mut pos = 0;
            let (m, n, k) = (
                get_u32(rep, &mut pos)?,
                get_u32(rep, &mut pos)?,
                get_u32(rep, &mut pos)?,
            );
            let sigma = get_f64s(rep, &mut pos, k)?;
            let vk = Matrix::from_vec(n, k, get_f64s(rep, &mut pos, n * k)?);
            let stream = get_bytes(rep, &mut pos)?;
            let u = decode(ctx, &cfg.orig, stream, Shape::d2(k, m))?;
            let approx = svd_rebuild(ctx, &Matrix::from_vec(m, k, u), &sigma, &vk);
            Ok(add(approx.as_slice()))
        }),
        ReducedModelKind::Wavelet => ctx.span("dimred.reconstruct", |ctx| {
            let mut pos = 0;
            let (m, n) = (get_u32(rep, &mut pos)?, get_u32(rep, &mut pos)?);
            let coeffs = SparseMatrix::from_bytes(get_bytes(rep, &mut pos)?).ok_or(
                DecodeError::Corrupt {
                    what: "wavelet sparse block",
                },
            )?;
            let model = WaveletModel {
                coeffs,
                rows: m,
                cols: n,
            };
            let approx = ctx.span("wavelet.reconstruct", |_| model.reconstruct());
            Ok(add(&approx))
        }),
        other => panic!("replay does not cover {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{op_list, Codecs, Inputs, Op, Workload};
    use crate::trace::Tracer;
    use lrm_datasets::{snapshots, DatasetKind, SizeClass};

    /// Compresses with the pipeline, replays under a tracer, and checks
    /// the replay rebuilt every section, the stream and the values.
    fn assert_replay_matches(pipe: &Pipeline, field: &Field) {
        let untraced = pipe.compress(field).bytes;
        let (restored, _) = pipe.reconstruct(&untraced).expect("untraced decode");
        let tracer = Tracer::new();
        let replayed = compress(tracer.root(1), pipe, field, &untraced).expect("replay");
        let sections = untraced_chunks(&untraced).expect("sections");
        assert_eq!(sections.len(), replayed.chunks.len());
        for ((_, art), s) in sections.iter().zip(&replayed.chunks) {
            assert_eq!(art.get("rep"), Some(&s.rep[..]), "{:?}", pipe.config());
            assert_eq!(art.get("delta"), Some(&s.delta[..]), "{:?}", pipe.config());
        }
        assert_eq!(replayed.bytes, untraced, "{:?}", pipe.config());
        let again =
            reconstruct(tracer.root(2), pipe, &untraced, field.shape).expect("replay decode");
        assert!(again
            .iter()
            .zip(&restored)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn replay_rebuilds_the_served_ops_byte_for_byte() {
        let w = Workload::ServeMixed;
        let inputs = Inputs::generate(w);
        for op in op_list(w, &inputs, 3) {
            assert_replay_matches(&crate::pipe::pipeline(w, &op), inputs.field(&op));
        }
    }

    #[test]
    fn replay_rebuilds_chunked_and_svd_ops_byte_for_byte() {
        let astro = &snapshots(DatasetKind::Astro, 1, SizeClass::Small)[0];
        for model in [
            ReducedModelKind::Direct,
            ReducedModelKind::OneBase,
            ReducedModelKind::MultiBase(4),
        ] {
            for codecs in [Codecs::Sz, Codecs::Zfp] {
                let op = Op {
                    dataset: 0,
                    snapshot: 0,
                    model,
                    codecs,
                };
                let pipe = crate::pipe::pipeline(Workload::Slabs3d, &op);
                assert_eq!(pipe.effective_chunks(astro.shape), 8);
                assert_replay_matches(&pipe, astro);
            }
        }
        let laplace = &snapshots(DatasetKind::Laplace, 1, SizeClass::Small)[0];
        let pipe = Pipeline::from_config(lrm_core::PipelineConfig::sz(ReducedModelKind::Svd));
        assert_replay_matches(&pipe, laplace);
    }
}
