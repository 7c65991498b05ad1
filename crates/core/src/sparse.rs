//! What the Top-k, gTop-k and DGC codecs share: the selection size, the
//! sparse payload they put on the wire, and the checked decode of the
//! coordinates other ranks send back.

use acp_collectives::{CollectiveOp, CollectiveResult};
use acp_compression::{Payload, TopK};

use crate::error::CoreError;
use crate::pipeline::{Bucket, Round};

/// Panics unless `density` is a fraction in `(0, 1]`.
pub(crate) fn assert_density(density: f64) {
    assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1]");
}

/// Elements kept from an `n`-element bucket: `ceil(density · n)`, at least
/// one and at most `n`.
pub(crate) fn k_for(density: f64, n: usize) -> usize {
    ((density * n as f64).ceil() as usize).clamp(1, n)
}

/// The coordinate and value arrays of a top-k payload.
pub(crate) fn into_parts(payload: Payload) -> Result<(Vec<u32>, Vec<f32>), CoreError> {
    match payload {
        Payload::Sparse {
            indices, values, ..
        } => Ok((indices, values)),
        _ => Err(CoreError::CodecProtocol(
            "top-k compressor must produce a sparse payload",
        )),
    }
}

/// One round: all-gather every rank's coordinates and values.
pub(crate) fn all_gather(indices: Vec<u32>, values: Vec<f32>) -> Vec<CollectiveOp> {
    vec![
        CollectiveOp::AllGatherU32 { send: indices },
        CollectiveOp::AllGatherF32 { send: values },
    ]
}

/// Rejects coordinates that came from other ranks but do not address the
/// bucket: a value count that differs from the index count, or an index
/// `>= bucket.elems`. Over TCP these arrays come straight off the socket.
pub(crate) fn check_coordinates(
    bucket: &Bucket,
    indices: &[u32],
    values: &[f32],
) -> Result<(), CoreError> {
    if indices.len() != values.len() {
        return Err(CoreError::CodecProtocol(
            "sparse index and value counts differ",
        ));
    }
    if indices.iter().any(|&i| i as usize >= bucket.elems) {
        return Err(CoreError::CodecProtocol("sparse index outside the bucket"));
    }
    Ok(())
}

/// Decodes the [`all_gather`] round: scatter-adds every rank's selection
/// into a dense bucket and averages over the world size.
pub(crate) fn decode_gathered(
    bucket: &mut Bucket,
    results: Vec<CollectiveResult>,
) -> Result<Round, CoreError> {
    let mut results = results.into_iter();
    let mut next = || {
        results.next().ok_or(CoreError::CodecProtocol(
            "expected two collective results per round",
        ))
    };
    let indices = next()?.into_u32().map_err(CoreError::from)?;
    let values = next()?.into_f32().map_err(CoreError::from)?;
    check_coordinates(bucket, &indices, &values)?;
    let mut dense = vec![0.0f32; bucket.elems];
    TopK::scatter_average(&indices, &values, bucket.world_size, &mut dense);
    bucket.data = dense;
    Ok(Round::Done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::BucketCodec;
    use crate::{DgcAggregator, DgcConfig, GTopkSgdAggregator, TopkSgdAggregator};

    const ELEMS: usize = 4;

    fn bucket() -> Bucket {
        Bucket {
            index: 0,
            tensors: 0..1,
            dims: vec![vec![ELEMS]],
            offsets: vec![0, ELEMS],
            elems: ELEMS,
            world_size: 2,
            data: Vec::new(),
            payload_bytes: 0,
        }
    }

    fn gathered(indices: Vec<u32>, values: Vec<f32>) -> Vec<CollectiveResult> {
        vec![
            CollectiveResult::U32(indices),
            CollectiveResult::F32(values),
        ]
    }

    fn is_protocol_error(r: Result<Round, CoreError>) -> bool {
        matches!(r, Err(CoreError::CodecProtocol(_)))
    }

    #[test]
    fn peer_indices_outside_the_bucket_are_rejected_by_every_sparse_codec() {
        let out_of_range = ELEMS as u32;
        let gather_codecs: [Box<dyn BucketCodec>; 2] = [
            Box::new(TopkSgdAggregator::new(0.5).codec),
            Box::new(DgcAggregator::new(DgcConfig::default()).codec),
        ];
        for mut codec in gather_codecs {
            let name = codec.name();
            let r = codec.decode(
                &mut bucket(),
                gathered(vec![0, out_of_range], vec![1.0, 2.0]),
            );
            assert!(is_protocol_error(r), "{name}: index == elems");
            let r = codec.decode(&mut bucket(), gathered(vec![u32::MAX], vec![1.0]));
            assert!(is_protocol_error(r), "{name}: index u32::MAX");
            let r = codec.decode(&mut bucket(), gathered(vec![0, 1], vec![1.0]));
            assert!(is_protocol_error(r), "{name}: value count differs");
        }
        let mut gtopk = GTopkSgdAggregator::new(0.5).codec;
        let r = gtopk.decode(
            &mut bucket(),
            vec![CollectiveResult::Sparse(vec![out_of_range], vec![1.0])],
        );
        assert!(is_protocol_error(r), "gtopk: index == elems");
        let r = gtopk.decode(
            &mut bucket(),
            vec![CollectiveResult::Sparse(vec![0, 1], vec![1.0])],
        );
        assert!(is_protocol_error(r), "gtopk: value count differs");
    }

    #[test]
    fn in_range_peer_indices_decode_as_before() {
        let (indices, values) = (vec![3, 0, 3], vec![1.5, -0.0, 2.25]);
        let mut expected = vec![0.0f32; ELEMS];
        TopK::scatter_average(&indices, &values, 2, &mut expected);
        let mut b = bucket();
        let r = decode_gathered(&mut b, gathered(indices, values));
        assert!(matches!(r, Ok(Round::Done)));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&b.data), bits(&expected));

        let mut gtopk = GTopkSgdAggregator::new(0.5).codec;
        let mut b = bucket();
        let r = gtopk.decode(
            &mut b,
            vec![CollectiveResult::Sparse(vec![1, 3], vec![3.0, -0.0])],
        );
        assert!(matches!(r, Ok(Round::Done)));
        assert_eq!(bits(&b.data), bits(&[0.0, 1.5, 0.0, -0.0]));
    }
}
